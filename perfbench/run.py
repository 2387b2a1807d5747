#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload yahoo_long|fleet_1k|fleet_chaos \
        --seed N --seconds S --trace 0|1 [--size full|tiny] [--corrupt-digest]

Run from the repository root.  The build goes to .bench_build/perfbench
(CMake, Release); its output goes to stderr so that the last line of stdout
stays the benchmark's JSON result.  A failed build exits non-zero without a
result.  See perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures (first time) and builds the benchmark; returns the binary."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return BINARY


def main():
    binary = build()
    sys.stdout.flush()
    # The benchmark replaces this process, so there is nothing left to wait for.
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
