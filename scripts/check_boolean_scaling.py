#!/usr/bin/env python3
"""Fails when the boolean sweep's per-square cost grows with the input.

Reads a google-benchmark JSON written by bench_boolean and compares
BM_DisjointSquaresDistinctY's s_per_square at 32000 squares with the one at
1000 squares. The open-trapezoid sweep touches only what each event changes,
so the cost per square should stay flat; a ratio above the bound means the
sweep again visits every active edge in every band.

    python3 scripts/check_boolean_scaling.py build/bench_boolean.json [bound]
"""
import json
import sys


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    bound = float(sys.argv[2]) if len(sys.argv) == 3 else 2.0
    with open(sys.argv[1]) as f:
        runs = json.load(f)["benchmarks"]
    per_square = {r["name"]: r["s_per_square"] for r in runs
                  if r["name"].startswith("BM_DisjointSquaresDistinctY/")}
    small = per_square["BM_DisjointSquaresDistinctY/1000"]
    large = per_square["BM_DisjointSquaresDistinctY/32000"]
    ratio = large / small
    print(f"BM_DisjointSquaresDistinctY s_per_square: 1000 -> {small * 1e9:.0f} ns, "
          f"32000 -> {large * 1e9:.0f} ns, ratio {ratio:.2f} (bound {bound:.2f})")
    if ratio > bound:
        sys.exit("boolean sweep scaling guard failed: per-square cost grows with the input")


if __name__ == "__main__":
    main()
