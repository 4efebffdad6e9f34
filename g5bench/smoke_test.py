#!/usr/bin/env python3
"""Tiny-N smoke test of the benchmark: every workload, both modes.

    python3 g5bench/smoke_test.py [--n 2048]

Runs run.py at a small N for each workload in BENCHMARK.json, untraced and
traced, and asserts that the run exits 0, that the last stdout line is a
result object with exactly the contract's keys and a passing correctness
gate, and that it carries every end-to-end (untraced) or per-layer
(traced) metric named in BENCHMARK.json, finite and in its unit.
"""
import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def check_run(workload, trace, n, expected):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--n", str(n)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    problems = []
    if done.returncode != 0:
        problems.append(f"exit code {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        return problems + ["no output"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("correctness gate failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics {sorted(set(metrics) ^ set(expected))} "
                        "missing or unexpected")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r} is not finite")
        if m.get("unit") != unit:
            problems.append(f"{name} unit {m.get('unit')!r}, want {unit!r}")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2048)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in modes.items():
            problems = check_run(workload, trace, args.n, expected)
            status = "ok" if not problems else "FAIL"
            print(f"{status:4} {workload} --trace {trace}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    print(f"{failures} failing run(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
