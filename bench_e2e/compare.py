#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs, metric by metric and workload by workload.

    python3 bench_e2e/compare.py A.json B.json

A is the baseline (the parent commit), B the change; each is a results file
written by `run.py --runs N` (N >= 10 for the pair rule to mean anything).
Runs pair up in order, so make both sets with the same --seed and --runs.
The end-to-end metrics, their direction and their bounds come from
BENCHMARK.json. One row per workload x metric, with the verdict:

  improved    B wins at least 9/10 of the pairs (ties count for neither) and
              the medians differ by more than A's interquartile range;
  worse       B's median is worse than A's by more than the bound;
  unresolved  A's or B's interquartile range exceeds the bound (as a share
              of its median), unless every run of B beats every run of A;
  same        otherwise.

Exits 1 when any row is worse or unresolved.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    for r in json.loads(Path(path).read_text())["runs"]:
        if not r["trace"]:
            runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a, b, better, bound):
    lower = better == "lower"
    beats = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1a, q3a = quartiles(a)
    q1b, q3b = quartiles(b)
    spread = max((q3a - q1a) / med_a, (q3b - q1b) / med_b)
    pairs = list(zip(a, b))
    wins = sum(beats(y, x) for x, y in pairs)
    worse_by = (med_b - med_a) / med_a * (1 if lower else -1)
    separated = all(beats(y, x) for x in a for y in b)
    if spread > bound and not separated:
        v = "unresolved"
    elif wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3a - q1a and beats(med_b, med_a):
        v = "improved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "same"
    return {"med_a": med_a, "med_b": med_b, "iqr_a": (q1a, q3a), "iqr_b": (q1b, q3b),
            "spread": spread, "wins": wins, "pairs": len(pairs), "worse_by": worse_by,
            "verdict": v}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = load(argv[1]), load(argv[2])
    print(f"{'workload':<16} {'metric':<12} {'A median [p25, p75]':>32} "
          f"{'B median [p25, p75]':>32} {'worse by':>9} {'wins':>6} {'spread':>7} "
          f"{'bound':>6}  verdict")
    bad = 0
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in a_runs or w not in b_runs:
            print(f"{w:<16} (missing from {'A' if w not in a_runs else 'B'})")
            bad += 1
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in a_runs[w]]
            b = [r["metrics"][m["name"]]["value"] for r in b_runs[w]]
            v = verdict(a, b, m["better"], m["bound"])
            bad += v["verdict"] in ("worse", "unresolved")
            fa = f"{v['med_a']:.4g} [{v['iqr_a'][0]:.4g}, {v['iqr_a'][1]:.4g}]"
            fb = f"{v['med_b']:.4g} [{v['iqr_b'][0]:.4g}, {v['iqr_b'][1]:.4g}]"
            print(f"{w:<16} {m['name']:<12} {fa:>32} {fb:>32} {100 * v['worse_by']:>8.1f}% "
                  f"{v['wins']:>2}/{v['pairs']:<3} {100 * v['spread']:>6.1f}% "
                  f"{100 * m['bound']:>5.0f}%  {v['verdict']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
