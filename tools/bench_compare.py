#!/usr/bin/env python3
"""Compare a fresh bench JSON against a checked-in BENCH_* baseline.

Usage:
  bench_compare.py FRESH.json BASELINE.json [--threshold 10.0] [--strict]

Reads the tree-build rows of bench_p4_treebuild --json (baseline
BENCH_p9.json): objects with n/threads/build_ms (the median build),
matched on (n, threads). Other entries (the host descriptor, notes) are
skipped. For each matched row the tool prints baseline vs fresh
timings and the delta in percent; a slowdown beyond --threshold is
flagged as a REGRESSION.
Rows present in only one file are listed but never count as
regressions, so a quick fresh run over a subset of the baseline grid is
fine.

Exit status: 0 normally (the comparison is advisory — container timing
vs a checked-in baseline from another machine is noise-dominated);
1 when --strict is given and any regression was flagged; 1 always when
a fresh row reports bitwise_identical = false (that is a correctness
bit, not a timing); 2 on malformed input.

Stdlib only — CI needs no extra packages.
"""

import argparse
import json
import sys


def row_key(row):
    """Stable identity for a bench row, or None for other entries."""
    if not isinstance(row, dict):
        return None
    if "n" in row and "threads" in row and "build_ms" in row:
        return (("n", row["n"]), ("threads", row["threads"]))
    return None


def row_times(row):
    """{metric-name: ms} for every timing the row carries."""
    return {"build_ms": float(row["build_ms"])}


def key_label(key):
    return " ".join(f"{k}={v}" for k, v in key)


def load_rows(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise ValueError(f"{path}: expected a JSON array of bench rows")
    rows = {}
    for row in doc:
        key = row_key(row)
        if key is not None:
            rows[key] = row
    if not rows:
        raise ValueError(f"{path}: no bench rows recognized")
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh")
    parser.add_argument("baseline")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="slowdown percent that counts as a "
                             "regression (default 10)")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when a regression is flagged")
    args = parser.parse_args()

    try:
        fresh = load_rows(args.fresh)
        base = load_rows(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    regressions = 0
    bitwise_failures = 0
    compared = 0
    width = max((len(key_label(k)) for k in fresh), default=20)
    header = (f"{'row':<{width}}  {'metric':<16}  {'baseline':>10}  "
              f"{'fresh':>10}  {'delta':>8}")
    print(header)
    print("-" * len(header))

    for key in sorted(fresh):
        label = key_label(key)
        if key not in base:
            print(f"{label:<{width}}  (not in baseline — skipped)")
            continue
        ftimes = row_times(fresh[key])
        btimes = row_times(base[key])
        for metric in sorted(ftimes):
            if metric not in btimes or btimes[metric] <= 0:
                continue
            compared += 1
            b, f = btimes[metric], ftimes[metric]
            delta = (f / b - 1.0) * 100.0
            flag = ""
            if delta > args.threshold:
                flag = "  REGRESSION"
                regressions += 1
            print(f"{label:<{width}}  {metric:<16}  {b:>10.4f}  "
                  f"{f:>10.4f}  {delta:>+7.2f}%{flag}")
        if fresh[key].get("bitwise_identical") is False:
            print(f"{label:<{width}}  bitwise_identical=false  FAIL")
            bitwise_failures += 1

    missing = sorted(k for k in base if k not in fresh)
    for key in missing:
        print(f"{key_label(key):<{width}}  (baseline row not re-run)")

    print(f"\n{compared} timings compared, {regressions} over the "
          f"{args.threshold:g}% threshold, {bitwise_failures} bitwise "
          f"failures")
    if bitwise_failures:
        return 1
    if regressions and args.strict:
        return 1
    if regressions:
        print("advisory mode: regressions reported but not fatal "
              "(re-run with --strict to gate)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
