#!/usr/bin/env python3
"""Tests of the benchmark harness itself: determinism and the result line.

    python3 perfbench/test_perfbench.py

Each run uses --seconds 0 (the minimum number of passes).  The harness
already fails a run whose passes disagree; these tests also compare
separate runs: two runs with one seed, and an untraced with a traced
run, must report identical counts and simulated-time figures.  No op of
a measured workload may fail.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")
        cls.out = os.path.join(run.build_dir(), "test")
        os.makedirs(cls.out, exist_ok=True)
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def harness(self, workload, seed, trace):
        """Run once; return (result line, exact figures report)."""
        path = os.path.join(self.out, f"{workload}-{seed}-{trace}.json")
        rc, _, result = run.run_harness(self.binary, workload, seed, 0, trace,
                                        ["--report", path])
        self.assertEqual(rc, 0, f"{workload} trace {trace} exited {rc}")
        self.assertIsNotNone(result)
        with open(path) as f:
            return result, json.load(f)

    def test_same_seed_same_figures(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                _, a = self.harness(w, SEED, 1)
                _, b = self.harness(w, SEED, 1)
                self.assertEqual(a, b)

    def test_traced_figures_match_untraced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                _, untraced = self.harness(w, SEED, 0)
                _, traced = self.harness(w, SEED, 1)
                self.assertEqual(untraced["exact"], traced["exact"])

    def test_measured_ops_do_not_fail(self):
        # The measured layouts keep clear of the simulator's known
        # defects; the defects layout shows them in the traced run.
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                result, report = self.harness(w, SEED, 0)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(report["exact"]["corrupt_pages"], 0)

    def test_seed_drives_inputs(self):
        _, a = self.harness("io_tiny", SEED, 0)
        _, b = self.harness("io_tiny", SEED + 1, 0)
        self.assertNotEqual(a["exact"], b["exact"])

    def test_result_line_matches_benchmark_spec(self):
        want = {0: [m["name"] for m in self.spec["end_to_end"]],
                1: [m["name"] for m in self.spec["per_layer"]]}
        units = {m["name"]: m["unit"]
                 for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        for trace in (0, 1):
            result, _ = self.harness("formula_tiny", SEED, trace)
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(list(result["metrics"]), want[trace])
            for name, m in result["metrics"].items():
                self.assertEqual(m["unit"], units[name], name)


if __name__ == "__main__":
    unittest.main()
