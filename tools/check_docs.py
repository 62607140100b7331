#!/usr/bin/env python3
"""Docs-vs-code lint: fails CI when the wire documentation drifts from
the source of truth.

Checks:
  1. Every enumerator of `enum class MessageType` (src/net/messages.h)
     appears in docs/wire.md — adding a frame type without documenting
     it fails the build. Same for `enum class StreamKind`.
  2. Every relative markdown link in docs/*.md and README.md resolves
     to an existing file — renaming a doc cannot leave dangling links.
  3. Every backticked source path `<module>/<file>.h|.cc` (optionally
     `src/`-prefixed, `.{h,cc}` for both) in those files names an
     existing file when <module> is a directory under src/ — moving or
     deleting a source file cannot leave a stale reference.

Usage: check_docs.py [--repo-root DIR]. Exits nonzero listing every
violation.
"""

import argparse
import os
import re
import sys


def extract_enumerators(header_text, enum_name):
    """Enumerator names of `enum class <enum_name>` in a C++ header."""
    match = re.search(
        r"enum\s+class\s+%s\b[^{]*\{(.*?)\}" % re.escape(enum_name),
        header_text,
        re.DOTALL,
    )
    if not match:
        return None
    body = re.sub(r"//[^\n]*", "", match.group(1))
    return re.findall(r"\b(k\w+)\b\s*(?:=\s*\d+)?\s*,", body + ",")


def check_enum_documented(root, header, enum_name, doc, errors):
    header_path = os.path.join(root, header)
    doc_path = os.path.join(root, doc)
    try:
        with open(header_path, "r", encoding="utf-8") as f:
            names = extract_enumerators(f.read(), enum_name)
        with open(doc_path, "r", encoding="utf-8") as f:
            doc_text = f.read()
    except OSError as e:
        errors.append(str(e))
        return
    if not names:
        errors.append("%s: enum class %s not found" % (header, enum_name))
        return
    for name in names:
        if name not in doc_text:
            errors.append(
                "%s: %s::%s is not documented" % (doc, enum_name, name)
            )


def check_markdown_links(root, md_path, errors):
    """Every relative link target in `md_path` must exist on disk."""
    try:
        with open(os.path.join(root, md_path), "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        errors.append(str(e))
        return
    for target in re.findall(r"\]\(([^)#\s]+)(?:#[^)]*)?\)", text):
        if re.match(r"[a-z]+://", target):
            continue
        resolved = os.path.normpath(
            os.path.join(root, os.path.dirname(md_path), target)
        )
        if not os.path.exists(resolved):
            errors.append("%s: dangling link -> %s" % (md_path, target))


SOURCE_PATH = re.compile(r"(?:src/)?([a-z_]+)/(\w+)\.(h|cc|\{h,cc\})")


def check_source_paths(root, md_path, errors):
    """Backticked src/<module>/<file> paths in `md_path` must exist."""
    src = os.path.join(root, "src")
    try:
        with open(os.path.join(root, md_path), "r", encoding="utf-8") as f:
            text = f.read()
        modules = {d for d in os.listdir(src)
                   if os.path.isdir(os.path.join(src, d))}
    except OSError as e:
        errors.append(str(e))
        return
    for span in re.findall(r"`([^`\n]+)`", text):
        match = SOURCE_PATH.fullmatch(span)
        if not match or match.group(1) not in modules:
            continue
        module, name, ext = match.groups()
        for e in (["h", "cc"] if ext == "{h,cc}" else [ext]):
            if not os.path.exists(os.path.join(src, module, name + "." + e)):
                errors.append("%s: stale source path `%s`" % (md_path, span))
                break


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root", default=".")
    args = parser.parse_args()
    root = args.repo_root

    errors = []
    check_enum_documented(
        root, "src/net/messages.h", "MessageType", "docs/wire.md", errors
    )
    check_enum_documented(
        root, "src/net/messages.h", "StreamKind", "docs/wire.md", errors
    )

    md_files = ["README.md"]
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        md_files += [
            os.path.join("docs", f)
            for f in sorted(os.listdir(docs_dir))
            if f.endswith(".md")
        ]
    for md in md_files:
        check_markdown_links(root, md, errors)
        check_source_paths(root, md, errors)

    if errors:
        for e in errors:
            print("check_docs: %s" % e, file=sys.stderr)
        sys.exit(1)
    print("check_docs: %d markdown files OK, enums documented, source "
          "paths resolve" % len(md_files))


if __name__ == "__main__":
    main()
