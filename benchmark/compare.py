#!/usr/bin/env python3
"""Compares two sets of benchmark results against the bounds in BENCHMARK.json.

usage: compare.py BASE_DIR NEW_DIR [--bench BENCHMARK.json]

Each directory holds one file per run: the standard output of
`benchmark/run.sh --workload W --seed S ...`. Runs are grouped by workload
and sorted by file name; the i-th BASE run of a workload pairs with its i-th
NEW run, so run the two commits alternately, with the same seeds, at least
ten times each.

One row per workload and metric gives each side's median and quartiles, the
change of the median (positive means worse), the share of pairs NEW wins
(ties count for neither) and a verdict:

  unresolved  BASE's own spread (quartile distance over median) exceeds the
              bound, and not every NEW run beats every BASE run
  worse       the median got worse by more than the bound
  better      over at least ten pairs, NEW wins at least 9 in 10 and the
              medians differ by more than BASE's quartile distance
  same        otherwise

Per-layer metrics have no bound: they get "better", "worse" (the mirror of
"better") or "same". Exits 1 when any end-to-end metric is "worse".
"""

import argparse
import collections
import json
import os
import statistics
import sys


def load(directory):
    """workload -> metric -> [values], runs in file-name order."""
    runs = collections.defaultdict(lambda: collections.defaultdict(list))
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as f:
            lines = f.read().strip().splitlines()
        if not lines:
            continue
        result = json.loads(lines[-1])
        workloads = {line.split()[0] for line in lines[:-1] if len(line.split()) == 4}
        if len(workloads) != 1 or not result.get("correct"):
            print(f"skipping {name}: not one correct run", file=sys.stderr)
            continue
        workload = workloads.pop()
        for metric, m in result["metrics"].items():
            runs[workload][metric].append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, lower_is_better, bound):
    sign = 1.0 if lower_is_better else -1.0
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    change = sign * (nmed - bmed) / bmed if bmed else 0.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) > 0)
    spread = (b3 - b1) / abs(bmed) if bmed else 0.0
    all_better = max(sign * n for n in new) < min(sign * b for b in base)
    if bound is not None and spread > bound and not all_better:
        label = "unresolved"
    elif bound is not None and change > bound:
        label = "worse"
    elif len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(nmed - bmed) > b3 - b1:
        label = "better"
    elif (bound is None and len(pairs) >= 10 and losses >= 0.9 * len(pairs)
          and abs(nmed - bmed) > b3 - b1):
        label = "worse"
    else:
        label = "same"
    return change, wins / len(pairs) if pairs else 0.0, label


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    specs = {m["name"]: (m["better"] == "lower", m.get("bound"))
             for m in bench["end_to_end"] + bench["per_layer"]}

    base, new = load(args.base), load(args.new)
    regressed = False
    header = (f"{'workload':14} {'metric':34} {'base q1/med/q3':>32} "
              f"{'new q1/med/q3':>32} {'change':>8} {'wins':>5}  verdict")
    print(header)
    for workload in sorted(set(base) & set(new)):
        for metric in sorted(set(base[workload]) & set(new[workload])):
            if metric not in specs:
                continue
            b, n = base[workload][metric], new[workload][metric]
            lower_is_better, bound = specs[metric]
            change, win_share, label = verdict(b, n, lower_is_better, bound)
            regressed = regressed or (label == "worse" and bound is not None)
            note = "" if min(len(b), len(n)) >= 10 else f" ({min(len(b), len(n))} pairs)"
            bq, nq = quartiles(b), quartiles(n)
            print(f"{workload:14} {metric:34} "
                  f"{bq[0]:10.4g} {bq[1]:10.4g} {bq[2]:10.4g} "
                  f"{nq[0]:10.4g} {nq[1]:10.4g} {nq[2]:10.4g} "
                  f"{100 * change:7.2f}% {win_share:5.2f}  {label}{note}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
