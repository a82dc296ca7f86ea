#!/usr/bin/env python3
"""Compare two result sets of the repository benchmark.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--trace 0|1]

Each directory holds result files written by perfbench/run.py (by
default into .bench_out/results/; pass --results DIR to run.py to keep
sets apart). Runs are paired in seed order: the i-th run of BASE with
the i-th run of CHANGE, so run both sets over the same seeds and
alternate which side runs first.

For every workload x metric the tool prints each side's median and
quartiles and one verdict:

  changed     one side wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the
              distance between BASE's own quartiles; the direction
              says whether the change is better or worse
  unresolved  not changed, and either side's quartile spread is wider
              than the metric's bound in BENCHMARK.json (metrics
              without a bound: per-layer numbers)
  within      not changed, and CHANGE's median is no worse than BASE's
              by more than the bound
  worse       not changed by the pairing rule, yet CHANGE's median is
              worse than BASE's by more than the bound

An A/A comparison (the same code on both sides) should read "within"
or "unresolved" everywhere.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(directory, trace):
    """{workload: [(seed, {metric: value})]} in seed order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        drv = rec["run"]
        if int(drv["trace"]) != trace:
            continue
        values = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        runs.setdefault(drv["workload"], []).append((drv["seed"], values))
    for series in runs.values():
        series.sort(key=lambda r: r[0])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    q1b, medb, q3b = quartiles(base)
    q1c, medc, q3c = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    moved = abs(medc - medb) > (q3b - q1b)
    if pairs and moved and wins >= 0.9 * len(pairs):
        return "changed (better)"
    if pairs and moved and losses >= 0.9 * len(pairs):
        return "changed (worse)"
    if bound is None:
        return "unresolved"
    spread = max((q3b - q1b) / abs(medb) if medb else 0.0,
                 (q3c - q1c) / abs(medc) if medc else 0.0)
    if spread > bound:
        return "unresolved"
    worse_by = sign * (medb - medc) / abs(medb) if medb else 0.0
    return "worse" if worse_by > bound else "within"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    base = load_set(args.base, args.trace)
    change = load_set(args.change, args.trace)

    header = ("workload", "metric", "n", "base q1/med/q3",
              "change q1/med/q3", "delta", "verdict")
    rows = [header]
    for workload in sorted(set(base) & set(change)):
        b_runs, c_runs = base[workload], change[workload]
        n = min(len(b_runs), len(c_runs))
        for m in declared:
            name = m["name"]
            b = [r[1][name] for r in b_runs[:n]]
            c = [r[1][name] for r in c_runs[:n]]
            if not n:
                continue
            qb, qc = quartiles(b), quartiles(c)
            delta = (qc[1] - qb[1]) / abs(qb[1]) if qb[1] else 0.0
            rows.append((workload, name, str(n),
                         "/".join(f"{x:.4g}" for x in qb),
                         "/".join(f"{x:.4g}" for x in qc),
                         f"{delta:+.1%}",
                         verdict(b, c, m["better"], m.get("bound"))))
    if len(rows) == 1:
        sys.exit("no workload has results in both sets")
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip())


if __name__ == "__main__":
    main()
