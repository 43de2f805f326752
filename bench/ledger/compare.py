#!/usr/bin/env python3
"""Compares two perf_ledger result sets against BENCHMARK.json's bounds.

    python3 bench/ledger/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds untraced perf_ledger --json results (run.py --save
DIR writes them). Runs pair up per workload in file-name order, so make
the two sets by alternating parent and change runs. For every workload
and end-to-end metric it prints each side's median and quartiles and a
verdict:

  improved    the claim rule holds: at least 10 pairs, the change wins
              at least 9 in 10 of them, and the medians differ by more
              than the parent's interquartile range; or the spread is
              too wide to judge but every change run beats every parent
              run
  unresolved  a side's spread (IQR / median) exceeds the bound
  regressed   the change's median is worse than the parent's by more
              than the bound
  unchanged   otherwise

The exit status is 1 when any pair of (workload, metric) is regressed
or unresolved, else 0. Needs at least two runs per side and workload.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory):
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        runs[result["workload"]].append(result)
    return runs


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(spec, parent, change):
    lower = spec["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    p_med, p_q1, p_q3 = summary(parent)
    c_med, c_q1, c_q3 = summary(change)
    worse = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    claim = (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
             and better(c_med, p_med) and abs(c_med - p_med) > p_q3 - p_q1)
    dominates = all(better(c, p) for c in change for p in parent)
    if spread > spec["bound"]:
        label = "improved" if dominates else "unresolved"
    elif claim:
        label = "improved"
    elif worse > spec["bound"]:
        label = "regressed"
    else:
        label = "unchanged"
    return label, (p_med, p_q1, p_q3), (c_med, c_q1, c_q3), worse, \
        spread, wins, len(pairs)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", type=Path,
                        default=Path(__file__).resolve().parents[2]
                        / "BENCHMARK.json")
    args = parser.parse_args()
    bench = json.loads(args.benchmark.read_text())
    parent, change = load(args.parent), load(args.change)

    bad = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        print(f"\n{workload}: {len(p_runs)} parent runs, {len(c_runs)} change "
              "runs")
        if len(p_runs) < 2 or len(c_runs) < 2:
            print("  not enough runs to compare")
            bad += 1
            continue
        print(f"  {'metric':<14} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'worse':>8} {'spread':>7} "
              f"{'bound':>6} {'wins':>6}  verdict")
        for spec in bench["end_to_end"]:
            values = [[r["metrics"][spec["name"]]["value"] for r in runs]
                      for runs in (p_runs, c_runs)]
            label, p, c, worse, spread, wins, pairs = verdict(spec, *values)
            bad += label in ("regressed", "unresolved")
            print(f"  {spec['name']:<14} "
                  f"{p[0]:>12.6g} [{p[1]:>9.6g}, {p[2]:>9.6g}] "
                  f"{c[0]:>12.6g} [{c[1]:>9.6g}, {c[2]:>9.6g}] "
                  f"{100 * worse:>7.2f}% {100 * spread:>6.2f}% "
                  f"{100 * spec['bound']:>5.0f}% {wins:>3}/{pairs:<2}  {label}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
