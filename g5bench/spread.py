#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 g5bench/spread.py [--workload NAME ...] [--seeds 1-10]
                              [--trace 0|1] [--seconds S]

For every workload and metric it prints the median over the seeds and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. Untraced
metrics are also checked against a third of their BENCHMARK.json bound,
the margin the benchmark is tuned to. Results go to
.bench_build/spread-trace<T>.json as well.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    worst = 0
    for workload in workloads:
        values = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
                return 1
            for name, m in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {}
        print(f"{workload} ({len(args.seeds)} seeds)")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            limit = bounds.get(name)
            flag = ""
            if limit is not None and name != "setup_s":
                flag = "ok" if spread < limit / 3 else "WIDE"
                worst += flag == "WIDE"
            summary[workload][name] = {"median": med, "spread": spread,
                                       "values": v}
            print(f"  {name:34} median {med:<14.6g} spread {spread:7.4f} "
                  f"{flag}")
    out = ROOT / ".bench_build" / f"spread-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
