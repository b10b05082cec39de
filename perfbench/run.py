#!/usr/bin/env python3
"""Builds the end-to-end benchmark from the checkout's sources and runs one
workload of it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build (CMake, Release) goes to .bench_build/perfbench under the
checkout root; the first run configures and compiles, later runs only
check that the build is current. Build output goes to stderr, so the last
line of stdout is the load generator's JSON result. Exits nonzero, without
a result line, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_load")
WORKLOADS = ("protein_repeat", "irreducible_anytime", "session_deltas_durable")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(BUILD, "out")]
    try:
        # run() kills the child and waits for it when the timeout fires.
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
