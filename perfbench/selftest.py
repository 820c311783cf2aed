#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

A one-second run of every workload, untraced and traced, must certify
every operation (``failed`` 0) and print exactly the metrics BENCHMARK.json
names, with their units. A run in a directory that holds only
BENCHMARK.json and perfbench/ must exit non-zero without a result line.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import BENCH_DIR, ROOT, RUN_DIR
from workloads import WORKLOADS


def bench(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = bench(ROOT, name, trace)
            where = f"{name} --trace {trace}"
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{where}: no result line (exit {proc.returncode}) {proc.stderr[-500:]}")
                continue
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if proc.returncode != 0 or result["failed"] or not result["correct"]:
                problems.append(f"{where}: exit {proc.returncode}, result {result}")
            if got != expected[trace]:
                problems.append(f"{where}: metrics {got} != {expected[trace]}")
            print(f"{where}: {result['attempted']} operations, {result['failed']} failed")

    bare = RUN_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(bare, "frontier", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print(f"without src/: exit {proc.returncode}, {proc.stderr.strip()}")

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
