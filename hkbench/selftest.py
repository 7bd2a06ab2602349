"""Self-test of the benchmark at tiny problem sizes.

    python3 hkbench/selftest.py

Runs every workload in ``--quick`` mode, untraced and traced, and checks that
every metric BENCHMARK.json names prints with its unit, both as a ``metric``
line and in the final JSON line.  It then feeds one operation a kernel-matrix
csv with a non-numeric cell, which hklearn rejects with exit code 2, and checks
that the benchmark counts it as a failed operation.
"""

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+)")


def quick_run(workload, trace=0, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--quick", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    printed = {m.group(1): (m.group(2), m.group(3))
               for m in map(METRIC_LINE.match, lines) if m}
    return proc, printed, json.loads(lines[-1])


class QuickModeTest(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc, printed, result = quick_run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
                    for metric in declared:
                        value, unit = printed[metric["name"]]
                        self.assertEqual(unit, metric["unit"])
                        self.assertTrue(math.isfinite(float(value)))
                        self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
                        self.assertIsInstance(result["metrics"][metric["name"]]["value"], float)
                    self.assertEqual(float(printed["failed_ops_ratio"][0]), 0.0)

    def test_malformed_kernel_matrix_counts_as_failed(self):
        proc, printed, result = quick_run("extend-tl1", 0, "--corrupt-op", "2")
        self.assertEqual(proc.returncode, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("failed op 2: eval exited with code 2", proc.stdout)
        self.assertEqual(float(printed["failed_ops_ratio"][0]), 1 / result["attempted"])


if __name__ == "__main__":
    unittest.main()
