#!/usr/bin/env python3
"""Tests for uldp_fl_cli's flag table: --help, the refusal of flags a run
does not read, the checks between values, and --target-epsilon's claim.

Usage: tools/cli_test.py path/to/uldp_fl_cli (ctest passes the built
binary; registered as cli_test).
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

CLI = None
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The 53 flags of the command line: --help must list exactly these.
FLAGS = set("""
allocation async async-buffer checkpoint-dir checkpoint-every clip connect
csv dataset delta dim elastic eval-every fail-silo global-lr group-k hmac-key
join-silo label-column local-epochs local-lr masked max-frame-bytes
max-staleness method metrics-out min-silos n-max net-timeout num-seeds
ot-slots pack-slots paillier-bits record-transcript records resume rounds
seed serve sigma silo-id silos stats-port straggler stream-chunk-coords
stream-chunk-users target-epsilon threads trace-out user-sample-rate users
verify verify-transcript
""".split())

# Each run by the flags that start it, with a flag it does not read and
# the runs that do. The silos connect to a closed port, so a run that
# accepted its flags would fail fast with exit 1 rather than hang.
SILO = ["--connect=127.0.0.1:1", "--silo-id=0", "--silos=2"]
RUNS = {
    "local run": (["--dataset=heart", "--rounds=1"], "--ot-slots=4",
                  "Protocol 1 server, Protocol 1 silo"),
    "Protocol 1 server": (["--serve=0", "--silos=2"], "--method=uldp-avg",
                          "local run"),
    "Protocol 1 silo": (SILO, "--rounds=2",
                        "local run, Protocol 1 server, async server"),
    "async server": (["--serve=0", "--async", "--silos=2"], "--users=6",
                     "local run, Protocol 1 server, Protocol 1 silo"),
    "async silo": (SILO + ["--async"], "--paillier-bits=1024",
                   "Protocol 1 server, Protocol 1 silo"),
    "transcript check": (["--verify-transcript=none.ult"], "--seed=3",
                         "local run, Protocol 1 server, Protocol 1 silo, "
                         "async server, async silo"),
}

HEART = ["--dataset=heart", "--rounds=1"]
# Combinations whose flag the run would otherwise ignore, or whose privacy
# claim it would break: each must exit 2 naming the flag.
REFUSED = [
    # A local run reads none of the distributed flags.
    HEART + ["--ot-slots=4"],
    HEART + ["--pack-slots=2"],
    HEART + ["--verify"],
    HEART + ["--paillier-bits=1024"],
    HEART + ["--dim=3"],
    # A server serves demo inputs: no method, dataset or noise.
    ["--serve=0", "--silos=2", "--method=uldp-avg"],
    ["--serve=0", "--silos=2", "--dataset=heart"],
    ["--serve=0", "--silos=2", "--sigma=3"],
    # --target-epsilon calibrates the ULDP Gaussian mechanism, which
    # neither the non-private default nor uldp-group runs.
    HEART + ["--method=uldp-group", "--target-epsilon=2"],
    HEART + ["--method=default", "--target-epsilon=2"],
    # Only uldp-avg, uldp-avg-w and uldp-sgd sample users.
    HEART + ["--method=uldp-naive", "--user-sample-rate=0.1"],
    HEART + ["--method=uldp-group", "--user-sample-rate=0.1"],
    HEART + ["--method=default", "--user-sample-rate=0.1"],
    # A Protocol 1 run samples users only through its OT slots.
    ["--serve=0", "--silos=2", "--user-sample-rate=0.5"],
    SILO + ["--user-sample-rate=0.5"],
    # heart has 4 silos and tcga 6, each with fixed records.
    HEART + ["--silos=9"],
    HEART + ["--records=5"],
    ["--dataset=tcga", "--rounds=1", "--silos=9"],
    ["--dataset=tcga", "--rounds=1", "--records=5"],
    ["--csv=missing.csv", "--records=5"],
    HEART + ["--label-column=3"],
    HEART + ["--method=uldp-avg", "--group-k=4"],
    HEART + ["--method=uldp-naive", "--group-k=4"],
]

# Today's checks between values and messages for malformed values.
VALUE_CHECKS = [
    (["--users=0"], '--users: "0" out of range [1, 16777216]'),
    (["--threads=fast"], '--threads: "fast" is not an integer'),
    (["--sigma=abc"], '--sigma: "abc" is not a number'),
    (["--seed=-1"], '--seed: "-1" is negative'),
    (["--fail-silo=3"], '--fail-silo expects ID:ROUND, got "3"'),
    (["--serve=0", "--async", "--elastic", "--silos=3", "--fail-silo=3:1"],
     "--fail-silo/--join-silo ID must be < --silos"),
    (["--serve=0", "--async", "--silos=3", "--fail-silo=1:1"],
     "--fail-silo/--join-silo require --elastic"),
    (["--connect=127.0.0.1:1"], "--connect requires --silo-id"),
    (["--serve=0", "--connect=127.0.0.1:1", "--silo-id=0"],
     "--serve and --connect are mutually exclusive"),
    (["--serve=0", "--silos=1"],
     "the distributed protocol needs --silos >= 2"),
    (SILO[:1] + ["--silo-id=2", "--silos=2"], "--silo-id must be < --silos"),
    (["--serve=0", "--silos=2", "--stream-chunk-coords=8"],
     "--stream-chunk-coords requires --stream-chunk-users"),
    (["--serve=0", "--async", "--silos=2", "--async-buffer=3"],
     "--async-buffer must be <= --silos"),
    (HEART + ["--method=uldp-avg", "--async", "--async-buffer=5"],
     "--async-buffer must be <= 4, the silo count of --dataset=heart"),
    (["--serve=0", "--async", "--silos=2", "--verify", "--max-staleness=1"],
     "--verify needs --max-staleness=0"),
    (["--serve=0", "--async", "--silos=2", "--min-silos=1"],
     "--min-silos requires --elastic"),
    (["--serve=0", "--async", "--silos=2", "--masked", "--max-staleness=1"],
     "--masked needs the full fixed cohort"),
    (["--serve=0", "--async", "--silos=2", "--verify", "--elastic"],
     "--verify replays the fixed-cohort schedule"),
    (["--resume"], "--resume requires --checkpoint-dir"),
    (["--checkpoint-dir=ckpt"], "--checkpoint-dir requires --checkpoint-every"),
    (["--checkpoint-dir=ckpt", "--checkpoint-every=1", "--num-seeds=2"],
     "checkpointing a multi-seed averaged run is not supported"),
    (["--serve=0", "--silos=2", "--hmac-key=00"],
     "--hmac-key requires --record-transcript or --verify-transcript"),
    # Trainer values the privacy analysis has no meaning for: refused at
    # parse time, before any data loads.
    (HEART + ["--method=uldp-avg", "--user-sample-rate=0"],
     '--user-sample-rate: "0" out of range (0, 1]'),
    (HEART + ["--method=uldp-avg", "--user-sample-rate=1.5"],
     '--user-sample-rate: "1.5" out of range (0, 1]'),
    (HEART + ["--method=uldp-sgd", "--user-sample-rate=0"],
     '--user-sample-rate: "0" out of range (0, 1]'),
    (HEART + ["--method=uldp-sgd", "--user-sample-rate=1.5"],
     '--user-sample-rate: "1.5" out of range (0, 1]'),
    (HEART + ["--method=uldp-avg", "--clip=0"],
     '--clip: "0" out of range (0, inf)'),
    (HEART + ["--method=uldp-sgd", "--clip=0"],
     '--clip: "0" out of range (0, inf)'),
    (HEART + ["--method=uldp-naive", "--clip=0"],
     '--clip: "0" out of range (0, inf)'),
    (HEART + ["--method=uldp-avg", "--sigma=0"],
     '--sigma: "0" out of range (0, inf)'),
    (HEART + ["--method=uldp-avg", "--sigma=-1"],
     '--sigma: "-1" out of range (0, inf)'),
    (HEART + ["--method=uldp-avg", "--delta=0"],
     '--delta: "0" out of range (0, 1)'),
    (HEART + ["--method=uldp-avg", "--target-epsilon=-1"],
     '--target-epsilon: "-1" out of range [0, inf)'),
    (SILO + ["--async", "--straggler=-1"],
     '--straggler: "-1" out of range [0, inf)'),
    (["--bogus=1"], "unknown flag: --bogus=1 (try --help)"),
    (["--verify=1"], "unknown flag: --verify=1 (try --help)"),
]


def run(args, timeout=20):
    """Runs the CLI; a run still going after `timeout` s counts as rc None."""
    try:
        done = subprocess.run([CLI] + args, capture_output=True, text=True,
                              timeout=timeout, cwd=REPO)
    except subprocess.TimeoutExpired:
        return None, "", ""
    return done.returncode, done.stdout, done.stderr


def loopback(args, server_args=()):
    """Runs a --verify Protocol 1 server and its silos over loopback TCP
    with `args` for every party and `server_args` for the server only;
    returns the server's aggregate lines."""
    server = subprocess.Popen(
        [CLI, "--serve=0", "--rounds=2", "--verify"] + args +
        list(server_args),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, cwd=REPO)
    out, port = [], None
    try:
        for line in server.stdout:
            out.append(line)
            port = re.search(r"listening on port (\d+)", line)
            if port:
                break
        if port is None:
            raise AssertionError("server did not start (exit %s):\n%s" %
                                 (server.wait(timeout=20), "".join(out)))
        silos_arg = next(a for a in args if a.startswith("--silos="))
        silos = [subprocess.Popen(
            [CLI, "--connect=127.0.0.1:" + port.group(1),
             "--silo-id=%d" % s] + args, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, cwd=REPO)
            for s in range(int(silos_arg.split("=")[1]))]
        out += server.stdout.readlines()
        rcs = [server.wait(timeout=120)] + [s.wait(timeout=120)
                                            for s in silos]
    finally:
        server.kill()
    text = "".join(out)
    if rcs != [0] * len(rcs) or "bitwise-match" not in text:
        raise AssertionError("loopback run failed (exits %s):\n%s" %
                             (rcs, text))
    return [line for line in out if "aggregate[" in line]


class CliTest(unittest.TestCase):
    def test_help_lists_each_flag_once(self):
        rc, out, _ = run(["--help"])
        self.assertEqual(rc, 0)
        self.assertEqual(set(re.findall(r"--([a-z][a-z0-9-]*)", out)), FLAGS)
        defined = re.findall(r"^  --([a-z][a-z0-9-]*)", out, re.MULTILINE)
        self.assertEqual(sorted(defined), sorted(FLAGS))

    def test_each_run_refuses_a_flag_it_does_not_read(self):
        for name, (base, flag, readers) in RUNS.items():
            with self.subTest(run=name):
                rc, _, err = run(base + [flag])
                self.assertEqual(rc, 2, err)
                self.assertIn(flag.split("=")[0] + " does not apply to this " +
                              name + "; it is read by: " + readers, err)

    def test_ignored_or_misleading_combinations_exit_2(self):
        for args in REFUSED:
            with self.subTest(args=" ".join(args)):
                rc, _, err = run(args)
                self.assertEqual(rc, 2, err)
                self.assertRegex(err, re.escape(args[-1].split("=")[0]) +
                                 " does not apply to this .*; it is read by: "
                                 "(local run|Protocol 1 server)")

    def test_value_checks_and_messages_are_kept(self):
        for args, message in VALUE_CHECKS:
            with self.subTest(args=" ".join(args)):
                rc, _, err = run(args)
                self.assertEqual(rc, 2, err)
                self.assertIn(message, err)

    def test_async_buffer_up_to_the_dataset_silo_count_runs(self):
        # tcga has 6 silos whatever --silos says, so a buffer of 6 is full.
        rc, out, err = run(["--dataset=tcga", "--method=uldp-avg", "--async",
                            "--async-buffer=6", "--rounds=1"], timeout=120)
        self.assertEqual(rc, 0, err)
        self.assertIn("6 silos", out)

    def test_target_epsilon_runs_end_within_the_target(self):
        # Every run that accepts --target-epsilon must end at epsilon <= E.
        runs = [[m] for m in ("uldp-naive", "uldp-avg", "uldp-avg-w",
                              "uldp-sgd")]
        runs += [[m, "--user-sample-rate=0.1"]
                 for m in ("uldp-avg", "uldp-avg-w", "uldp-sgd")]
        for extra in runs:
            args = ["--dataset=heart", "--rounds=5", "--target-epsilon=2",
                    "--method=" + extra[0]] + extra[1:]
            with self.subTest(args=" ".join(args)):
                rc, out, err = run(args, timeout=120)
                self.assertEqual(rc, 0, err)
                self.assertIn("Calibrated sigma", out)
                last = out.strip().splitlines()[-1].split()
                self.assertEqual(last[1], "5", out)
                self.assertLessEqual(float(last[-1]), 2.0, out)

    def test_ot_slots_sample_users_at_the_given_rate(self):
        # Over loopback TCP: with every OT slot real (rate 1) the aggregate
        # is the one a run without OT prints; at rate 0.5 half the slots
        # are dummies, so the aggregate moves, and --verify still finds it
        # bitwise equal to the in-process protocol at that rate.
        shape = ["--silos=2", "--users=5", "--dim=4", "--seed=11",
                 "--net-timeout=60"]
        plain = loopback(shape)
        self.assertEqual(loopback(shape + ["--ot-slots=4"]), plain)
        sampled = loopback(shape + ["--ot-slots=4", "--user-sample-rate=0.5"])
        self.assertNotEqual(sampled, plain)

    def test_verify_server_telemetry_books_no_silo_work(self):
        # --verify runs an in-process reference, silo cores included, in
        # the server process after the distributed rounds. The server's
        # --metrics-out describes the distributed run only: a server
        # derives no blind and folds nothing.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "server_metrics.json")
            loopback(["--silos=2", "--users=5", "--dim=4", "--seed=11",
                      "--net-timeout=60"],
                     server_args=["--metrics-out=" + path])
            with open(path, encoding="utf-8") as f:
                counters = json.load(f)["counters"]
        self.assertGreater(counters.get("net.mux.frames", 0), 0)
        for name in ("core.blind_derivations", "core.fold.straus_batches",
                     "core.fold.table_batches"):
            self.assertEqual(counters.get(name, 0), 0, name)

    def test_readme_tables_name_only_real_flags(self):
        with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
            rows = [line for line in f if line.startswith("|")]
        named = set()
        for row in rows:
            named.update(re.findall(r"`--([a-z][a-z0-9-]*)", row))
        self.assertTrue(named, "no flag found in README tables")
        self.assertEqual(named - FLAGS, set())


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    CLI = os.path.abspath(sys.argv.pop(1))
    unittest.main()
