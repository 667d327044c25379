#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

The arithmetic and BENCHMARK.json tests run in milliseconds. The smoke tests
build perfbench.cc (once) and run two small tables of every workload, traced
and untraced, in seconds each.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent}


class PercentileTest(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        self.assertEqual(run.percentile(list(range(1, 21)), 0.5), 10)
        self.assertIsNone(run.percentile(list(range(1, 20)), 0.5))
        self.assertEqual(run.percentile(list(range(1, 1001)), 0.99), 990)
        self.assertIsNone(run.percentile(list(range(1, 1000)), 0.99))
        self.assertIsNone(run.percentile([], 0.5))

    def test_order_of_samples_does_not_matter(self):
        samples = [float(v) for v in range(40, 0, -1)]
        self.assertEqual(run.percentile(samples, 0.5), 20.0)

    def test_fallback_is_the_largest_sample(self):
        self.assertEqual(run.percentile_or_max([3.0, 1.0, 2.0], 0.99), 3.0)
        self.assertEqual(run.percentile_or_max([], 0.5), 0.0)
        self.assertEqual(run.percentile_or_max(list(range(1, 21)), 0.5), 10)


class SelfTimeTest(unittest.TestCase):
    def test_parent_loses_the_time_its_children_cover(self):
        spans = [span("run", 0.0, 10.0),
                 span("a", 1.0, 3.0, 0),
                 span("b", 4.0, 8.0, 0),
                 span("ask", 5.0, 6.0, 2)]
        self.assertEqual(run.self_times(spans), [4.0, 2.0, 3.0, 1.0])

    def test_totals_by_name(self):
        spans = [span("run", 0.0, 10.0),
                 span("step", 0.0, 2.0, 0),
                 span("step", 2.0, 5.0, 0)]
        self.assertEqual(run.self_time_by_name(spans),
                         {"run": 5.0, "step": 5.0})


class AggregationTest(unittest.TestCase):
    def test_mean_over_tables_of_each_tables_median(self):
        tables = [{"reps": [{"v": 1.0}, {"v": 100.0}, {"v": 2.0}]},
                  {"reps": [{"v": 3.0}, {"v": 3.0}, {"v": 4.0}]}]
        self.assertEqual(
            run.mean_of_table_medians(tables, lambda rep: rep["v"]), 2.5)

    def test_times_scale_by_the_reference_over_the_probes_median(self):
        probe = 2 * run.PROBE_REFERENCE_S
        tables = [{"reps": [{"probe_s": probe}, {"probe_s": 100.0}]},
                  {"reps": [{"probe_s": probe}]}]
        self.assertAlmostEqual(run.host_scale(tables), 0.5)


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def assert_same(self, listed, table):
        self.assertEqual([m["name"] for m in listed], list(table))
        for m in listed:
            unit, better = table[m["name"]]
            self.assertEqual(m["unit"], unit, m["name"])
            self.assertEqual(m["better"], better, m["name"])

    def test_every_metric_is_declared_with_unit_and_direction(self):
        self.assert_same(self.spec["end_to_end"], run.END_TO_END)
        self.assert_same(self.spec["per_layer"], run.PER_LAYER)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))


def bench(*args, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), *args],
        cwd=run.ROOT, capture_output=True, text=True, env=env, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_output(self, workload, trace, table):
        done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), list(table))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], table[name][0])
            self.assertIsInstance(metric["value"], (int, float))
            self.assertIn(name, done.stdout.split("\n", 1)[1])

    def test_every_workload_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_output(workload, 0, run.END_TO_END)

    def test_every_workload_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_output(workload, 1, run.PER_LAYER)

    def test_refuses_knobs_that_change_what_is_measured(self):
        for knob in run.REFUSED_KNOBS:
            env = dict(os.environ, **{knob: "1"})
            done = bench("--workload", "crowd-faulty", "--smoke", env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
