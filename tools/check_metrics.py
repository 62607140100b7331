#!/usr/bin/env python3
"""Telemetry-artifact gate: validates the metrics JSON snapshots
(schema uldp.metrics.v1, MetricsRegistry::WriteJsonFile) and Chrome
trace-event files (TraceBuffer::WriteJson) the CLI writes via
--metrics-out / --trace-out.

Checks are structural (the file is well-formed and internally
consistent: histogram bucket counts sum to the recorded count, bucket
bounds ascend, trace events are complete "X" events sorted by
timestamp) plus caller-specified presence floors:

  check_metrics.py --metrics m.json \
      --require-metric net.transport.bytes_sent \
      --require-metric net.mux.frames:5 \
      --require-hist net.mux.dispatch_ns \
      --trace t.json --require-span proto.round:2

A requirement is NAME or NAME:MIN (MIN defaults to 1): the named
counter/gauge must exist with value >= MIN, the named histogram must
have count >= MIN, the named span must appear >= MIN times. NAME=VALUE
asks for exactly VALUE instead, which pins a work count:

  check_metrics.py --metrics silo0.json \
      --require-metric core.blind_derivations=6

--forbid-metric NAME asks for a counter/gauge that is absent or 0: work
a party must not book, such as a silo's fold on the server:

  check_metrics.py --metrics server.json \
      --forbid-metric core.fold.straus_batches

Exits nonzero listing every violation.
"""

import argparse
import json
import sys

SCHEMA = "uldp.metrics.v1"


def parse_requirement(spec):
    """NAME or NAME:MIN -> (name, min)."""
    name, sep, floor = spec.rpartition(":")
    if sep and floor.lstrip("-").isdigit():
        return name, int(floor)
    return spec, 1


def parse_exact(spec):
    """NAME=VALUE -> (name, value); None for a NAME or NAME:MIN spec."""
    name, sep, value = spec.rpartition("=")
    if sep and name and value.lstrip("-").isdigit():
        return name, int(value)
    return None


def requirement(spec):
    """Any spec -> (name, wanted value, exact?)."""
    exact = parse_exact(spec)
    if exact is not None:
        return exact[0], exact[1], True
    name, floor = parse_requirement(spec)
    return name, floor, False


def unmet(have, want, exact):
    """None when `have` meets the requirement, else what was wanted."""
    if exact:
        return None if have == want else "want exactly %d" % want
    return None if have >= want else "want >= %d" % want


def load_json(path, errors):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        errors.append("%s: %s" % (path, e))
        return None


def is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_metrics_doc(doc, path, errors):
    """Structural checks on one metrics snapshot; returns the doc's
    (counters+gauges, histograms) maps for requirement checks."""
    values, hists = {}, {}
    if not isinstance(doc, dict):
        errors.append("%s: top level is not an object" % path)
        return values, hists
    if doc.get("schema") != SCHEMA:
        errors.append(
            "%s: schema is %r, want %r" % (path, doc.get("schema"), SCHEMA)
        )
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            errors.append("%s: missing %r object" % (path, section))
            return values, hists
    for name, v in doc["counters"].items():
        if not is_count(v):
            errors.append(
                "%s: counter %s has non-count value %r" % (path, name, v)
            )
        values[name] = v
    for name, v in doc["gauges"].items():
        if not isinstance(v, int) or isinstance(v, bool):
            errors.append(
                "%s: gauge %s has non-integer value %r" % (path, name, v)
            )
        values[name] = v
    for name, h in doc["histograms"].items():
        if not isinstance(h, dict) or not is_count(h.get("count")) \
                or not is_count(h.get("sum")) \
                or not isinstance(h.get("buckets"), list):
            errors.append("%s: histogram %s is malformed" % (path, name))
            continue
        total, prev_le = 0, -1
        ok = True
        for b in h["buckets"]:
            if not isinstance(b, dict) or not is_count(b.get("count")) \
                    or not is_count(b.get("le")):
                errors.append(
                    "%s: histogram %s has a malformed bucket" % (path, name)
                )
                ok = False
                break
            if b["le"] <= prev_le:
                errors.append(
                    "%s: histogram %s bucket bounds not ascending"
                    % (path, name)
                )
                ok = False
                break
            prev_le = b["le"]
            total += b["count"]
        if ok and total != h["count"]:
            errors.append(
                "%s: histogram %s bucket counts sum to %d, count says %d"
                % (path, name, total, h["count"])
            )
        hists[name] = h
    return values, hists


def check_trace_doc(doc, path, errors):
    """Structural checks on one Chrome trace; returns span-name counts."""
    spans = {}
    if not isinstance(doc, dict) or not isinstance(
        doc.get("traceEvents"), list
    ):
        errors.append("%s: no traceEvents array" % path)
        return spans
    prev_ts = -1.0
    for i, e in enumerate(doc["traceEvents"]):
        if not isinstance(e, dict):
            errors.append("%s: event %d is not an object" % (path, i))
            continue
        name = e.get("name")
        if not isinstance(name, str) or not name:
            errors.append("%s: event %d has no name" % (path, i))
            continue
        if e.get("ph") != "X":
            errors.append(
                "%s: event %d (%s) is not a complete event" % (path, i, name)
            )
        for field in ("ts", "dur"):
            v = e.get(field)
            if not isinstance(v, (int, float)) or isinstance(v, bool) \
                    or v < 0:
                errors.append(
                    "%s: event %d (%s) has bad %s: %r"
                    % (path, i, name, field, v)
                )
        ts = e.get("ts")
        if isinstance(ts, (int, float)) and not isinstance(ts, bool):
            if ts < prev_ts:
                errors.append(
                    "%s: event %d (%s) breaks timestamp order"
                    % (path, i, name)
                )
            prev_ts = ts
        spans[name] = spans.get(name, 0) + 1
    return spans


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Validate --metrics-out / --trace-out artifacts."
    )
    parser.add_argument("--metrics", action="append", default=[],
                        help="metrics JSON file (repeatable; all merge for "
                             "requirement checks)")
    parser.add_argument("--trace", action="append", default=[],
                        help="Chrome trace JSON file (repeatable)")
    parser.add_argument("--require-metric", action="append", default=[],
                        metavar="NAME[:MIN]|NAME=VALUE",
                        help="counter/gauge present with value >= MIN, "
                             "or exactly VALUE")
    parser.add_argument("--require-hist", action="append", default=[],
                        metavar="NAME[:MIN]|NAME=VALUE",
                        help="histogram present with count >= MIN, or "
                             "exactly VALUE")
    parser.add_argument("--forbid-metric", action="append", default=[],
                        metavar="NAME",
                        help="counter/gauge absent or 0: work this "
                             "snapshot's party must not book")
    parser.add_argument("--require-span", action="append", default=[],
                        metavar="NAME[:MIN]|NAME=VALUE",
                        help="trace span present >= MIN times, or exactly "
                             "VALUE times")
    args = parser.parse_args(argv)

    if not args.metrics and not args.trace:
        parser.error("nothing to check: pass --metrics and/or --trace")
    if args.require_span and not args.trace:
        parser.error("--require-span needs --trace")
    if (args.require_metric or args.require_hist or args.forbid_metric) \
            and not args.metrics:
        parser.error(
            "--require-metric/--require-hist/--forbid-metric need --metrics")

    errors = []
    values, hists, spans = {}, {}, {}
    for path in args.metrics:
        doc = load_json(path, errors)
        if doc is None:
            continue
        v, h = check_metrics_doc(doc, path, errors)
        # Merge across files (server + silo snapshots): counters sum,
        # histograms keep the larger count — requirements are floors, so
        # any-file-satisfies is the useful semantic.
        for name, val in v.items():
            values[name] = values.get(name, 0) + val
        for name, hist in h.items():
            if name not in hists or hist["count"] > hists[name]["count"]:
                hists[name] = hist
    for path in args.trace:
        doc = load_json(path, errors)
        if doc is None:
            continue
        for name, n in check_trace_doc(doc, path, errors).items():
            spans[name] = spans.get(name, 0) + n

    for spec in args.require_metric:
        name, want, exact = requirement(spec)
        if name not in values:
            errors.append("required metric %s not found" % name)
            continue
        miss = unmet(values[name], want, exact)
        if miss:
            errors.append("metric %s = %d, %s" % (name, values[name], miss))
    for name in args.forbid_metric:
        if values.get(name, 0) != 0:
            errors.append(
                "metric %s = %d, want absent or 0" % (name, values[name])
            )
    for spec in args.require_hist:
        name, want, exact = requirement(spec)
        if name not in hists:
            errors.append("required histogram %s not found" % name)
            continue
        miss = unmet(hists[name]["count"], want, exact)
        if miss:
            errors.append(
                "histogram %s count = %d, %s"
                % (name, hists[name]["count"], miss)
            )
    for spec in args.require_span:
        name, want, exact = requirement(spec)
        miss = unmet(spans.get(name, 0), want, exact)
        if miss:
            errors.append(
                "trace span %s seen %d times, %s"
                % (name, spans.get(name, 0), miss)
            )

    if errors:
        for e in errors:
            print("check_metrics: FAIL: %s" % e, file=sys.stderr)
        return 1
    print(
        "check_metrics: OK (%d metrics files, %d traces, %d span names)"
        % (len(args.metrics), len(args.trace), len(spans))
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
