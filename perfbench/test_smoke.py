#!/usr/bin/env python3
"""Self-test of the benchmark: a smoke run of every workload, traced and
untraced, must print every metric `BENCHMARK.json` names, with its unit,
and check every op as correct.

Run from the root of the repository:

    python3 perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def smoke(workload, trace):
    out = run("--workload", workload, "--seed", "1", "--seconds", "1",
              "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check(self, trace, section):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload, trace=trace):
                diagnostics, result = smoke(workload, trace)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertTrue(diagnostics["guard_ok"])
                self.assertGreater(diagnostics["host_probe_ms"]["start"], 0)
                metrics = result["metrics"]
                self.assertEqual(
                    set(metrics), {m["name"] for m in SPEC[section]})
                for m in SPEC[section]:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                if trace == 0:
                    self.assertEqual(metrics["success_rate"]["value"], 1.0)
                    for m in SPEC[section]:
                        self.assertGreater(metrics[m["name"]]["value"], 0)

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")

    def test_unknown_workload_fails_without_a_result(self):
        out = run("--workload", "no-such", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
