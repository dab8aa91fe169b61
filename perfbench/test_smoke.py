#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced. Fails when a run fails, answers wrongly, or misses a metric that
BENCHMARK.json names or gives it another unit.

    python3 perfbench/test_smoke.py
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
    return proc.returncode, proc.stdout


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check(self, trace):
        wanted = self.bench["per_layer" if trace else "end_to_end"]
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                code, out = run(w["name"], trace)
                self.assertEqual(code, 0, out)
                result = json.loads(out.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                metrics = result["metrics"]
                for m in wanted:
                    self.assertIn(m["name"], metrics)
                    self.assertEqual(metrics[m["name"]].get("unit"), m["unit"], m["name"])
                    self.assertIsInstance(metrics[m["name"]].get("value"), (int, float))
                self.assertEqual(set(metrics), {m["name"] for m in wanted})

    def test_end_to_end_metrics(self):
        self.check(0)

    def test_per_layer_metrics(self):
        self.check(1)


if __name__ == "__main__":
    unittest.main()
