#!/usr/bin/env python3
"""Self-test of bench/compare_baselines.py's exact-match gate: a
deterministic work counter (factoring calls, MC random words) one off
its committed baseline must fail the gate, and the baseline's own value
must pass it.

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


# The serve_topk counters gated with exact_match.
COUNTERS = ("factoring_calls", "mc_words")


class ExactMatchGateTest(unittest.TestCase):
    def setUp(self):
        self.report = json.loads(BASELINE.read_text())

    def test_baseline_value_passes(self):
        status, out = run_gate(self.report)
        self.assertEqual(status, 0, out)

    def test_off_by_one_fails(self):
        for key in COUNTERS:
            value = int(self.report["metrics"][key])
            for delta in (1, -1):
                report = json.loads(json.dumps(self.report))
                report["metrics"][key] = value + delta
                status, out = run_gate(report)
                self.assertEqual(status, 1, f"{key}{delta:+d}: {out}")
                self.assertIn(key, out)

    def test_missing_counter_fails(self):
        for key in COUNTERS:
            report = json.loads(json.dumps(self.report))
            del report["metrics"][key]
            status, out = run_gate(report)
            self.assertEqual(status, 1, f"{key}: {out}")

    def test_checker_needs_both_sides(self):
        check = compare_baselines.exact_match("factoring_calls")
        self.assertEqual(check({"factoring_calls": 7},
                               {"factoring_calls": 7}), [])
        self.assertTrue(check({"factoring_calls": 8},
                              {"factoring_calls": 7}))
        self.assertTrue(check({"factoring_calls": 7}, {}))


if __name__ == "__main__":
    unittest.main()
