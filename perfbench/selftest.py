#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root.  It checks that
  * a tiny-size run of every workload, untraced and traced, is correct and
    prints every metric BENCHMARK.json names, with its unit and a finite value;
  * a deliberately mismatched digest (--corrupt-digest) fails the run: exit
    code non-zero, "correct": false and every attempted job-slot failed;
  * a directory holding only BENCHMARK.json and perfbench/ cannot build, so
    the benchmark exits non-zero there without printing a result.
Exits 0 when every check passes.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, script] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    tiny = ["--seed", "3", "--seconds", "0.5", "--size", "tiny"]
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, names in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            code, result, proc = run(["--workload", workload, "--trace", trace] + tiny)
            check(code == 0 and result is not None, f"{label}: exits 0 with a JSON result")
            if result is None:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result has exactly correct/attempted/failed/metrics")
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1, f"{label}: correct, nothing failed")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in names},
                  f"{label}: prints exactly the {len(names)} named metrics")
            for m in names:
                got = metrics.get(m["name"])
                check(got is not None and got["unit"] == m["unit"] and
                      isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
                      f"{label}: {m['name']} finite, unit {m['unit']}")

    for trace in ("0", "1"):
        label = f"fleet_1k --trace {trace} --corrupt-digest"
        code, result, _ = run(["--workload", "fleet_1k", "--trace", trace, "--corrupt-digest"] +
                              tiny)
        check(code != 0, f"{label}: exits non-zero")
        check(result is not None and result["correct"] is False and
              result["failed"] == result["attempted"] >= 1,
              f"{label}: correct is false and every job-slot failed")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(["--workload", "yahoo_long", "--trace", "0"] + tiny, cwd=bare,
                          script=os.path.join(bare, "perfbench", "run.py"))
    check(code != 0 and result is None, "bare checkout: exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
