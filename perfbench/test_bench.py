#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, at a tiny run length.

    python3 perfbench/test_bench.py          # from the repository root

They check that every metric BENCHMARK.json names is printed with its unit
(untraced and traced), that a deliberately corrupted servant reply counts as
a failure and in error_rate, that naming_churn's wire counts repeat exactly
for a seed while another seed changes the operation sequence, that the
traced stage spans add up to the call span, and that every result carries
the host fingerprint.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = "0.5"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=7, extra=()):
    """Run the benchmark; returns (host, detail, result) parsed from stdout."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SMOKE_SECONDS, "--trace", str(trace),
           *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=300, check=True).stdout
    lines = [json.loads(ln) for ln in out.splitlines() if ln.strip()]
    host = next(ln["host"] for ln in lines if "host" in ln)
    detail = next(ln["detail"] for ln in lines if "detail" in ln)
    return host, detail, lines[-1]


def value(result, name):
    return result["metrics"][name]["value"]


class Smoke(unittest.TestCase):
    def assert_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_every_metric_printed_with_its_unit(self):
        for wl in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl, trace=trace):
                    host, _, res = run(wl, trace)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreater(res["attempted"], 0)
                    self.assert_metrics(res, SPEC[key])
                    for k in ("nproc", "cpu_model", "kernel", "compiler",
                              "cmake_build_type"):
                        self.assertIn(k, host)
                    if trace == 0:
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(value(res, m["name"]), 0, m["name"])

    def test_corrupted_result_counts_as_error(self):
        for wl in ("colloc_small", "naming_churn"):
            with self.subTest(workload=wl):
                _, detail, res = run(wl, 0, extra=("--corrupt-every", "10"))
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertLess(value(res, "success_rate"), 1)
                self.assertGreater(detail["error_rate"], 0)
                _, _, traced = run(wl, 1, extra=("--corrupt-every", "10"))
                self.assertGreater(value(traced, "error_rate"), 0)

    def test_naming_churn_is_deterministic_per_seed(self):
        keys = ("wire_bytes_per_op", "wire_msgs_per_op",
                "dir.notifications_per_write", "op_sequence_hash")
        _, a, _ = run("naming_churn", 0, seed=11)
        _, b, _ = run("naming_churn", 1, seed=11)
        _, c, _ = run("naming_churn", 0, seed=12)
        for k in keys:
            self.assertEqual(a[k], b[k], k)
        self.assertGreater(a["wire_bytes_per_op"], 0)
        self.assertNotEqual(a["op_sequence_hash"], c["op_sequence_hash"])

    def test_stage_spans_add_up_to_the_call_span(self):
        client = ["idl.find_operation_ns", "orb.marshal_args_ns",
                  "orb.request_encode_ns", "orb.reply_decode_ns",
                  "orb.unmarshal_result_ns"]
        collocated = ["idl.find_operation_ns", "orb.request_decode_ns",
                      "orb.reply_encode_ns"]
        for wl in ("colloc_small", "tcp_small", "tcp_bulk"):
            with self.subTest(workload=wl):
                _, _, res = run(wl, 1)
                stages = client + (collocated if wl == "colloc_small" else [])
                below = ("orb.servant_us" if wl == "colloc_small"
                         else "transport.span_us")
                total = (value(res, "orb.unattributed_us") + value(res, below) +
                         sum(value(res, s) for s in stages) / 1e3)
                span = value(res, "orb.call_span_us")
                self.assertGreater(span, 0)
                self.assertAlmostEqual(total / span, 1.0, places=6)
                for s in stages:
                    self.assertGreater(value(res, s), 0, s)


if __name__ == "__main__":
    unittest.main(verbosity=2)
