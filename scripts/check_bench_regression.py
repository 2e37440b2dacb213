#!/usr/bin/env python3
"""Bench-trajectory guard: compare a fresh BENCH_*.json against the committed
baseline and fail on a large throughput regression.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json [--tolerance 0.30]
                              [--absolute]

Design (what makes this noise-tolerant enough for CI):

  * Cases are matched across the two files by their identity keys (shots,
    shard_size_dbu, pixels_per_sigma, ...), found anywhere in the JSON tree.
    A quick run produces smaller cases than the committed full-run baseline,
    so typically only a subset matches — unmatched cases are reported and
    skipped, never failed.
  * By default only *dimensionless ratio* metrics are compared (any metric
    whose name contains "speedup" or "improvement"). Those are measured
    same-host, same-binary within one bench run, so they transfer between
    the committed baseline's machine and the CI runner; absolute shots/sec
    or wall-clock numbers do not, and comparing them across hosts would be
    pure noise. --absolute additionally compares *_per_sec (higher is
    better) metrics — useful locally on the machine the baseline was
    recorded on.
  * Quality metrics are machine-independent, so they are always compared
    absolutely: EPE percentiles (epe_*_p50/p99/max from BENCH_scenarios.json,
    lower is better) fail when the fresh value exceeds the baseline by more
    than --tolerance *and* by more than a 2 dbu absolute floor (sub-pixel
    wobble on near-zero values is not a regression).
  * A throughput metric fails only when it drops by more than --tolerance
    (default 30%) relative to the baseline. Improvements and small wobbles
    pass.

Exit status: 0 = no regression (including "nothing comparable"), 1 = at
least one metric regressed, 2 = bad invocation / unreadable input.

CI wires this after the bench smoke steps and skips it when the PR carries
the `skip-bench-guard` label (see .github/workflows/ci.yml).
"""

import argparse
import json
import sys

# Keys that *identify* a case rather than measure it. Two dicts with equal
# values for every identity key they share (and at least one such key) are
# the same case in both files.
IDENTITY_KEYS = (
    "scenario",
    "shots",
    "iterations",
    "field_size_dbu",
    "shard_size_dbu",
    "pixels_per_sigma",
    "map_pixel_dbu",
    "extent_dbu",
    "distributed_workers",
    "threads",
)


def derive_blur_fractions(node, metrics):
    """Synthesizes blur_ms as a fraction of the case's end-to-end wall clock
    from the nested refresh-perf blocks. The fraction is dimensionless within
    one run, so it transfers across hosts like the speedup ratios — it guards
    the long-range blur's share of the solve, which the per-term maps and the
    windowed blur exist to shrink."""
    for perf_key, total_key, name in (
        ("refresh_perf", "total_ms", "blur_fraction_of_total"),
        ("sharded_refresh_perf", "sharded_total_ms",
         "sharded_blur_fraction_of_total"),
        ("global_refresh_perf", "global_total_ms",
         "global_blur_fraction_of_total"),
    ):
        perf = node.get(perf_key)
        total = node.get(total_key)
        if (isinstance(perf, dict) and isinstance(total, (int, float))
                and not isinstance(total, bool) and total > 0):
            blur = perf.get("blur_ms")
            if isinstance(blur, (int, float)) and not isinstance(blur, bool):
                metrics[name] = float(blur) / float(total)


def collect_cases(node, path=""):
    """Yields (section_path, identity_tuple, metrics_dict) for every dict in
    the tree that carries at least one identity key."""
    if isinstance(node, dict):
        identity = tuple(
            sorted((k, node[k]) for k in IDENTITY_KEYS if k in node and
                   not isinstance(node[k], (dict, list)))
        )
        if identity:
            metrics = {
                k: v
                for k, v in node.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
                and k not in IDENTITY_KEYS
            }
            derive_blur_fractions(node, metrics)
            yield (path, identity, metrics)
        for key, value in node.items():
            yield from collect_cases(value, f"{path}/{key}")
    elif isinstance(node, list):
        for item in node:
            yield from collect_cases(item, path)


# Quality never shrinks across hosts: any EPE percentile is compared on
# every run. Values below this floor are within raster interpolation noise.
EPE_ABS_FLOOR_DBU = 2.0


def comparable_metrics(metrics, absolute):
    """Higher-is-better metrics worth guarding. Ratio metrics (name contains
    'speedup' or 'improvement') always; absolute throughput on request."""
    names = [k for k in metrics if "speedup" in k or "improvement" in k]
    if absolute:
        names += [k for k in metrics if k.endswith("_per_sec")]
    return names


# Blur-share wobble below this many percentage points of the total wall
# clock is scheduler noise, not a regression (mirrors EPE_ABS_FLOOR_DBU).
BLUR_FRACTION_ABS_FLOOR = 0.05


def blur_fraction_metrics(metrics):
    """Lower-is-better blur-share metrics synthesized by
    derive_blur_fractions."""
    return [k for k in metrics if k.endswith("blur_fraction_of_total")]


def quality_metrics(metrics):
    """Lower-is-better printed-quality metrics (EPE percentiles in dbu).
    The *_improvement ratios are handled above as higher-is-better."""
    return [
        k for k in metrics
        if k.startswith("epe_") and "improvement" not in k
        and ("_p50" in k or "_p99" in k or "_max" in k)
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="maximum tolerated relative drop (default 0.30)")
    ap.add_argument("--absolute", action="store_true",
                    help="also compare *_per_sec metrics (same-host runs only)")
    args = ap.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
        with open(args.fresh) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_regression: cannot load input: {e}", file=sys.stderr)
        return 2

    base_cases = {(p, i): m for p, i, m in collect_cases(baseline)}
    fresh_cases = list(collect_cases(fresh))
    if not fresh_cases:
        print(f"check_bench_regression: no cases found in {args.fresh}",
              file=sys.stderr)
        return 2

    compared = 0
    regressions = []
    for path, identity, metrics in fresh_cases:
        base = base_cases.get((path, identity))
        ident = ", ".join(f"{k}={v}" for k, v in identity)
        if base is None:
            print(f"  [skip] {path} ({ident}): no matching baseline case")
            continue
        for name in comparable_metrics(metrics, args.absolute):
            if name not in base or not isinstance(base[name], (int, float)):
                continue
            old, new = float(base[name]), float(metrics[name])
            if old <= 0:
                continue  # placeholder (e.g. skipped distributed section)
            compared += 1
            drop = 1.0 - new / old
            status = "FAIL" if drop > args.tolerance else "ok"
            print(f"  [{status}] {path} ({ident}) {name}: "
                  f"{old:.3g} -> {new:.3g} ({-drop:+.1%})")
            if drop > args.tolerance:
                regressions.append((path, ident, name, old, new))
        for name in blur_fraction_metrics(metrics):
            if name not in base or not isinstance(base[name], (int, float)):
                continue
            old, new = float(base[name]), float(metrics[name])
            compared += 1
            grew = (new - old) / old if old > 0 else 0.0
            worse = new > old + BLUR_FRACTION_ABS_FLOOR and (
                old <= 0 or grew > args.tolerance)
            status = "FAIL" if worse else "ok"
            print(f"  [{status}] {path} ({ident}) {name}: "
                  f"{old:.1%} -> {new:.1%} of total")
            if worse:
                regressions.append((path, ident, name, old, new))
        for name in quality_metrics(metrics):
            if name not in base or not isinstance(base[name], (int, float)):
                continue
            old, new = float(base[name]), float(metrics[name])
            compared += 1
            grew = (new - old) / old if old > 0 else 0.0
            worse = new > old + EPE_ABS_FLOOR_DBU and (
                old <= 0 or grew > args.tolerance)
            status = "FAIL" if worse else "ok"
            print(f"  [{status}] {path} ({ident}) {name}: "
                  f"{old:.3g} -> {new:.3g} dbu")
            if worse:
                regressions.append((path, ident, name, old, new))

    print(f"check_bench_regression: {compared} metric(s) compared, "
          f"{len(regressions)} regression(s) beyond "
          f"{args.tolerance:.0%} ({args.baseline} vs {args.fresh})")
    if regressions:
        print("Throughput or printed quality regressed. If this change "
              "intentionally trades speed (or the runner was just noisy), "
              "re-run or apply the skip-bench-guard label.", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
