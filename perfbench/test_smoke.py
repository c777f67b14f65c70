#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

Usage, from the repository root:

    python3 perfbench/test_smoke.py

Runs every workload at tiny N (--smoke) untraced and traced, which
exercises every workload, every layer driver and the traced arms, and
asserts that each run is correct, reports failed == 0 and prints exactly
the metrics BENCHMARK.json names for its mode, each also on a readable
line. Also checks that the benchmark refuses to run, without a result,
from a directory that holds only the benchmark and not the simulator.
"""
import json
import math
import os
import shutil
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(args, cwd=ROOT):
    cmd = BENCH["command"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run(["--workload", workload, "--seed", "1", "--seconds", "0.5",
                    "--trace", str(trace), "--smoke"])
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        readable = "\n".join(lines[:-1])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            self.assertIn("\n" + m["name"] + " ", "\n" + readable, m["name"])
        self.assertIn("failed_ratio", readable)
        self.assertIn("seed=1", readable)
        self.assertIn("nproc=", readable)
        self.assertIn("build=", readable)

    def test_workloads(self):
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)

    def test_unknown_workload_fails(self):
        proc = run(["--workload", "no_such_workload", "--seed", "1",
                    "--seconds", "1", "--trace", "0"])
        self.assertNotEqual(proc.returncode, 0)

    def test_refuses_without_simulator_sources(self):
        lonely = os.path.join(ROOT, ".bench_build", "lonely")
        shutil.rmtree(lonely, ignore_errors=True)
        os.makedirs(lonely)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(lonely, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=lonely)
        shutil.rmtree(lonely, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
