#!/usr/bin/env python3
"""Unit tests for the telemetry-artifact gate (tools/check_metrics.py).

Run directly or via ctest (registered as check_metrics_test). The
histogram-consistency and missing-span cases are the acceptance checks: a
snapshot whose bucket counts disagree with its recorded count, or a trace
missing a required protocol phase, must turn the gate red.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_metrics  # noqa: E402


def good_metrics():
    return {
        "schema": "uldp.metrics.v1",
        "counters": {"net.transport.bytes_sent": 1234, "net.mux.frames": 7},
        "gauges": {"net.transport.largest_frame_bytes": 3512},
        "histograms": {
            "net.mux.dispatch_ns": {
                "count": 3,
                "sum": 900,
                "buckets": [{"le": 255, "count": 1}, {"le": 511, "count": 2}],
            }
        },
    }


def good_trace():
    return {
        "traceEvents": [
            {"name": "proto.round", "cat": "uldp", "ph": "X", "pid": 0,
             "tid": 1, "ts": 10.5, "dur": 900.0,
             "args": {"round": 0}},
            {"name": "proto.phase.setup", "cat": "uldp", "ph": "X",
             "pid": 0, "tid": 1, "ts": 11.0, "dur": 2.0},
        ]
    }


class CheckMetricsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, obj):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(obj, f)
        return path

    def test_good_artifacts_pass(self):
        m = self.write("m.json", good_metrics())
        t = self.write("t.json", good_trace())
        self.assertEqual(
            check_metrics.main(
                ["--metrics", m, "--trace", t,
                 "--require-metric", "net.transport.bytes_sent",
                 "--require-metric", "net.mux.frames:7",
                 "--require-hist", "net.mux.dispatch_ns:3",
                 "--require-span", "proto.round",
                 "--require-span", "proto.phase.setup"]
            ),
            0,
        )

    def test_wrong_schema_fails(self):
        doc = good_metrics()
        doc["schema"] = "uldp.metrics.v0"
        m = self.write("m.json", doc)
        self.assertEqual(check_metrics.main(["--metrics", m]), 1)

    def test_histogram_count_mismatch_fails(self):
        # The acceptance case: bucket counts sum to 2 but count says 3.
        doc = good_metrics()
        doc["histograms"]["net.mux.dispatch_ns"]["buckets"] = [
            {"le": 255, "count": 1},
            {"le": 511, "count": 1},
        ]
        m = self.write("m.json", doc)
        self.assertEqual(check_metrics.main(["--metrics", m]), 1)

    def test_histogram_unsorted_bounds_fail(self):
        doc = good_metrics()
        doc["histograms"]["net.mux.dispatch_ns"]["buckets"] = [
            {"le": 511, "count": 2},
            {"le": 255, "count": 1},
        ]
        m = self.write("m.json", doc)
        self.assertEqual(check_metrics.main(["--metrics", m]), 1)

    def test_missing_required_metric_fails(self):
        m = self.write("m.json", good_metrics())
        self.assertEqual(
            check_metrics.main(
                ["--metrics", m, "--require-metric", "net.server.nope"]
            ),
            1,
        )

    def test_metric_below_floor_fails(self):
        m = self.write("m.json", good_metrics())
        self.assertEqual(
            check_metrics.main(
                ["--metrics", m, "--require-metric", "net.mux.frames:8"]
            ),
            1,
        )

    def test_metrics_merge_across_files(self):
        # Server and silo snapshots both count frames; the floor applies
        # to the merged total.
        m1 = self.write("m1.json", good_metrics())
        m2 = self.write("m2.json", good_metrics())
        self.assertEqual(
            check_metrics.main(
                ["--metrics", m1, "--metrics", m2,
                 "--require-metric", "net.mux.frames:14"]
            ),
            0,
        )

    def test_exact_requirement_pins_the_value(self):
        # NAME=VALUE passes only at exactly VALUE: a count that grows past
        # it fails as surely as one that falls short.
        m = self.write("m.json", good_metrics())
        t = self.write("t.json", good_trace())
        self.assertEqual(
            check_metrics.main(
                ["--metrics", m, "--trace", t,
                 "--require-metric", "net.mux.frames=7",
                 "--require-hist", "net.mux.dispatch_ns=3",
                 "--require-span", "proto.round=1"]
            ),
            0,
        )
        for spec in ("net.mux.frames=6", "net.mux.frames=8"):
            self.assertEqual(
                check_metrics.main(["--metrics", m, "--require-metric", spec]),
                1,
                spec,
            )
        self.assertEqual(
            check_metrics.main(
                ["--metrics", m, "--require-hist", "net.mux.dispatch_ns=2"]
            ),
            1,
        )
        self.assertEqual(
            check_metrics.main(["--trace", t, "--require-span", "proto.round=2"]),
            1,
        )
        self.assertEqual(
            check_metrics.main(
                ["--metrics", m, "--require-metric", "net.server.nope=0"]
            ),
            1,
        )

    def test_forbidden_metric_must_be_absent_or_zero(self):
        # A server books no silo work: an absent or zero counter passes,
        # any booked count fails.
        doc = good_metrics()
        doc["counters"]["core.fold.table_batches"] = 0
        m = self.write("m.json", doc)
        self.assertEqual(
            check_metrics.main(
                ["--metrics", m,
                 "--forbid-metric", "core.fold.table_batches",
                 "--forbid-metric", "core.blind_derivations"]
            ),
            0,
        )
        self.assertEqual(
            check_metrics.main(
                ["--metrics", m, "--forbid-metric", "net.mux.frames"]
            ),
            1,
        )

    def test_missing_required_span_fails(self):
        # The acceptance case: the trace never recorded the aggregate phase.
        t = self.write("t.json", good_trace())
        self.assertEqual(
            check_metrics.main(
                ["--trace", t, "--require-span", "proto.phase.aggregate"]
            ),
            1,
        )

    def test_incomplete_event_fails(self):
        doc = good_trace()
        doc["traceEvents"][0]["ph"] = "B"  # begin without end
        t = self.write("t.json", doc)
        self.assertEqual(check_metrics.main(["--trace", t]), 1)

    def test_unsorted_trace_fails(self):
        doc = good_trace()
        doc["traceEvents"][0]["ts"] = 99.0
        t = self.write("t.json", doc)
        self.assertEqual(check_metrics.main(["--trace", t]), 1)

    def test_negative_duration_fails(self):
        doc = good_trace()
        doc["traceEvents"][1]["dur"] = -1.0
        t = self.write("t.json", doc)
        self.assertEqual(check_metrics.main(["--trace", t]), 1)

    def test_malformed_json_fails(self):
        path = os.path.join(self.tmp.name, "m.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json")
        self.assertEqual(check_metrics.main(["--metrics", path]), 1)

    def test_empty_trace_is_valid(self):
        t = self.write("t.json", {"traceEvents": []})
        self.assertEqual(check_metrics.main(["--trace", t]), 0)

    def test_requirement_spec_parsing(self):
        self.assertEqual(
            check_metrics.parse_requirement("net.mux.frames"),
            ("net.mux.frames", 1),
        )
        self.assertEqual(
            check_metrics.parse_requirement("net.mux.frames:5"),
            ("net.mux.frames", 5),
        )
        self.assertEqual(
            check_metrics.parse_exact("core.blind_derivations=6"),
            ("core.blind_derivations", 6),
        )
        self.assertIsNone(check_metrics.parse_exact("net.mux.frames:5"))
        self.assertIsNone(check_metrics.parse_exact("net.mux.frames"))


if __name__ == "__main__":
    unittest.main()
