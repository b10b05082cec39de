#!/usr/bin/env python3
"""Self-test of bench/compare_baselines.py's exact-match gate: a
deterministic work counter one off its committed baseline must fail the
gate, and the baseline's own value must pass it.

    python3 bench/test_compare_baselines.py
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import compare_baselines  # noqa: E402

BASELINE = BENCH_DIR / "baselines" / "BENCH_serve_topk.json"


def run_gate(report):
    """Runs compare_baselines.py on a run directory holding `report` only,
    against a baselines directory holding the committed serve_topk
    snapshot only. Returns (exit status, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        baselines = Path(tmp) / "baselines"
        run_dir.mkdir()
        baselines.mkdir()
        (baselines / BASELINE.name).write_text(BASELINE.read_text())
        (run_dir / BASELINE.name).write_text(json.dumps(report))
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "compare_baselines.py"),
             str(run_dir), "--baselines", str(baselines)],
            capture_output=True, text=True, check=False)
        return done.returncode, done.stdout


class ExactMatchGateTest(unittest.TestCase):
    def setUp(self):
        self.report = json.loads(BASELINE.read_text())
        self.calls = int(self.report["metrics"]["factoring_calls"])

    def test_baseline_value_passes(self):
        status, out = run_gate(self.report)
        self.assertEqual(status, 0, out)

    def test_off_by_one_fails(self):
        for delta in (1, -1):
            self.report["metrics"]["factoring_calls"] = self.calls + delta
            status, out = run_gate(self.report)
            self.assertEqual(status, 1, out)
            self.assertIn("factoring_calls", out)

    def test_missing_counter_fails(self):
        del self.report["metrics"]["factoring_calls"]
        status, out = run_gate(self.report)
        self.assertEqual(status, 1, out)

    def test_checker_needs_both_sides(self):
        check = compare_baselines.exact_match("factoring_calls")
        self.assertEqual(check({"factoring_calls": 7},
                               {"factoring_calls": 7}), [])
        self.assertTrue(check({"factoring_calls": 8},
                              {"factoring_calls": 7}))
        self.assertTrue(check({"factoring_calls": 7}, {}))


if __name__ == "__main__":
    unittest.main()
