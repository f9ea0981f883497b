#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/test_perfbench.py          # from the root of a checkout

TailRuleTest and OpMinRuleTest need no build. SmokeTest runs every
workload on tiny inputs (run.py --smoke; builds on first use) with --trace 0
and 1 and checks that the result line carries exactly the metrics
BENCHMARK.json names, with their units. MissingSourcesTest checks that the benchmark refuses to run, without
printing a result, where only BENCHMARK.json and perfbench/ exist.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


class TailRuleTest(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        value, pct, beyond, n = run.tail(values)
        self.assertEqual((value, beyond, n), (90, 10, 100))
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_percentile_rises_with_samples(self):
        value, pct, beyond, n = run.tail([float(v) for v in range(1, 1001)])
        self.assertEqual((value, beyond, n), (990.0, 10, 1000))
        self.assertAlmostEqual(pct, 99.0)

    def test_exactly_eleven_samples(self):
        value, pct, beyond, n = run.tail([5, 1, 9, 3, 7, 11, 2, 8, 4, 10, 6])
        self.assertEqual((value, beyond, n), (1, 10, 11))

    def test_too_few_samples_reports_how_many_are_beyond(self):
        value, pct, beyond, n = run.tail([3.0, 1.0, 2.0])
        self.assertEqual((value, beyond, n), (1.0, 2, 3))
        self.assertEqual(run.tail([4.0]), (4.0, 100.0, 0, 1))

    def test_ties_count_as_samples(self):
        value, _, beyond, _ = run.tail([7.0] * 30)
        self.assertEqual((value, beyond), (7.0, 10))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.tail([])


class OpMinRuleTest(unittest.TestCase):
    def test_one_class_is_the_overall_minimum(self):
        self.assertEqual(run.op_min([5.0, 3.0, 9.0, 4.0], "oooo"), 3.0)

    def test_only_the_class_at_the_median_counts(self):
        # Reads hold the median; the faster memo read and the writes do not count.
        lat = [15.0, 11.0, 16.0, 14.0, 140.0, 17.0, 150.0]
        cls = "rmrrwrw"
        self.assertEqual(run.median_class(lat, cls), "r")
        self.assertEqual(run.op_min(lat, cls), 14.0)

    def test_even_count_takes_the_lower_median(self):
        self.assertEqual(run.median_class([1.0, 2.0, 3.0, 4.0], "rrww"), "r")


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py"] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = run_bench(ROOT, "--workload", workload, "--seed", "3",
                                    "--seconds", "1", "--trace", str(trace), "--smoke")
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in spec[kind]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for m in result["metrics"].values():
                        self.assertEqual(set(m), {"value", "unit"})
                        self.assertIsInstance(m["value"], (int, float))
                    self.assertIn("samples beyond it", out.stdout)


class MissingSourcesTest(unittest.TestCase):
    def test_refuses_without_repository_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run_bench(bare, "--workload", "re-chain", "--seed", "1",
                            "--seconds", "1", "--trace", "0")
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
