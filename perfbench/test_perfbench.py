#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a source checkout:

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, then checks that every workload prints
every end-to-end metric with its unit, that outage_s sees the failover
workload's crash, and that the profiled run does not perturb the simulation.
Takes about two minutes.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run_benchmark(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_driver(*args):
    proc = subprocess.run([run.build_driver(), "--seed", "1", "--seconds", "0", *args],
                          stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


def expect_metrics(test, result, declared):
    test.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in declared))
    for metric in declared:
        got = result["metrics"][metric["name"]]
        test.assertEqual(got["unit"], metric["unit"], metric["name"])
        test.assertIsInstance(got["value"], (int, float), metric["name"])


class EndToEnd(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = run_benchmark(workload, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                expect_metrics(self, result, BENCHMARK["end_to_end"])
                for metric in BENCHMARK["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]["value"], 0,
                                       metric["name"])

    def test_outage_sees_the_primary_crash(self):
        def outage(*extra):
            data = run_driver("--workload", "plane-pbft-n20-failover", *extra)
            return data["reps"][0]["outcome"]["outage_s"]

        with_crash, without = outage(), outage("--no-crash")
        # The crash costs a request timeout (20 s) plus the view change.
        self.assertGreater(with_crash, without + 10.0)


class Traced(unittest.TestCase):
    def test_profiled_run_matches_untraced_and_reports_every_layer(self):
        data = run_driver("--workload", "plane-pbft-n20-failover", "--trace")
        self.assertEqual(data["traced"], data["untraced"])
        self.assertTrue(data["replay_ok"])
        result = run_benchmark("plane-pbft-n20-failover", 1)
        self.assertTrue(result["correct"])
        expect_metrics(self, result, BENCHMARK["per_layer"])


if __name__ == "__main__":
    unittest.main()
