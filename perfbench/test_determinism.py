#!/usr/bin/env python3
"""Self-test of the benchmark's seed handling and output contract.

For every workload, two traced runs with the same seed must generate the
same inputs (equal input digests) and do the same work (equal work
counters: the serve.*, ingest.* and storage.* counts), and a run with
another seed must generate different inputs. Every run must print
exactly the per-layer metrics BENCHMARK.json lists, with their units.
Each run is short; the test takes about a minute once the benchmark is
built.

    python3 perfbench/test_determinism.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("protein_repeat", "irreducible_anytime", "session_deltas_durable")
SECONDS = "2"
# Work counters that are not plain counts or byte sizes but are still
# ratios of counts, so they must repeat exactly too.
COUNTER_RATIOS = {"core.reduce.removed_fraction", "serve.cache_hit_rate",
                  "serve.pruned_fraction"}


def traced_run(workload, seed):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
         "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    digest = re.search(r"input digest ([0-9a-f]+)", lines[0]).group(1)
    result = json.loads(lines[-1])
    return done.returncode, digest, result


def work_counters(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if name.split(".")[0] in ("serve", "ingest", "storage", "integrate",
                                      "core")
            and (metric["unit"] in ("count", "B") or name in COUNTER_RATIOS)}


def listed_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class SeedDeterminismTest(unittest.TestCase):
    def test_same_seed_same_inputs_and_work_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code_a, digest_a, first = traced_run(workload, 7)
                code_b, digest_b, second = traced_run(workload, 7)
                code_c, digest_c, _ = traced_run(workload, 8)
                self.assertEqual((code_a, code_b, code_c), (0, 0, 0))
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(
                    {n: m["unit"] for n, m in first["metrics"].items()},
                    listed_metrics("per_layer"))
                self.assertEqual(digest_a, digest_b)
                self.assertNotEqual(digest_a, digest_c)
                counters = work_counters(first)
                self.assertGreater(sum(counters.values()), 0)
                self.assertEqual(counters, work_counters(second))


if __name__ == "__main__":
    unittest.main()
