"""Smoke test of the benchmark harness: one short run per workload and mode.

    python3 bench/smoke.py            # or: python3 -m pytest bench/smoke.py

Each workload runs with ``--seconds 1`` (two passes, the minimum) untraced
and traced. The test checks the shape of the result line, that every metric
named in BENCHMARK.json is emitted with its unit, and that every job run
passed. A last case checks that the benchmark refuses to run without the
program. It takes a few minutes on a two-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "42", "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload: str, trace: int, section: str):
        done = run_bench(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr)
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_run(workload["name"], 0, "end_to_end")

    def test_per_layer_metrics(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_run(workload["name"], 1, "per_layer")

    def test_refuses_without_program(self):
        alone = ROOT / ".bench_out" / "alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", alone)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, alone / path, ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench(SPEC["workloads"][0]["name"], 0, cwd=alone)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
