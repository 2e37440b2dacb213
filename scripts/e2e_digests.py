#!/usr/bin/env python3
"""Prints the shot digest of every end-to-end workload, one line per job.

Run from the repository root:

    python3 scripts/e2e_digests.py                  # full size and --quick
    python3 scripts/e2e_digests.py --quick --seeds 101,2027

It builds bench_e2e and pec_worker the way bench_e2e/run.py does (through
that script's build(), into .bench_build/e2e), then for each workload, seed
and size generates the layout (`bench_e2e gen`) and runs one cold job on it
(`bench_e2e cold`). Each job prints as

    workload seed size digest

with size `full` or `quick`. A digest is a hash of every output shot's
geometry and dose bits, so two commits that print the same lines produce the
same shots. The exit code is nonzero when a job reports a failure or the
build or a run fails; the digests themselves are only printed, never judged.
scripts/e2e_digests_quick.txt holds the `--quick --seeds 101,2027` lines of
the current tree; CI diffs the gcc build's output against it. The file was
produced with GCC 12.2.0 and glibc 2.36 (Debian 12, x86-64). Whether CI's
ubuntu-latest gcc and glibc print the same lines is not yet verified: the
digests hash dose bits, which may move with libm's exp or the compiler's
floating-point contraction. If the first CI run's gcc diff differs on every
PEC line, suspect the toolchain before the code.
"""
import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench_e2e"))
sys.dont_write_bytecode = True  # leave no __pycache__ in bench_e2e/
import run as e2e  # noqa: E402  (bench_e2e/run.py)

JOB_DEADLINE_S = 300


def digest(exe, workload, seed, quick, out_dir):
    """Generates one layout and runs one cold job on it; returns the job's
    JSON line."""
    deadline = time.monotonic() + JOB_DEADLINE_S
    layout = e2e.bench(exe, "gen", deadline, "--workload", workload, "--seed", str(seed),
                       "--out-dir", out_dir, *(["--quick"] if quick else []))["layout"]
    return e2e.bench(exe, "cold", deadline, "--workload", workload, "--input", layout)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--quick", action="store_true",
                   help="only the ~1/8-size layouts (default: full size and quick)")
    p.add_argument("--seeds", default="101,2027",
                   help="comma-separated workload seeds (default: 101,2027)")
    a = p.parse_args()
    seeds = [int(s) for s in a.seeds.split(",") if s]
    sizes = [True] if a.quick else [False, True]

    failed = 0
    try:
        exe = e2e.build()
        out_dir = e2e.BUILD / "digests"
        out_dir.mkdir(parents=True, exist_ok=True)
        for workload in e2e.WORKLOADS:
            for seed in seeds:
                for quick in sizes:
                    job = digest(exe, workload, seed, quick, out_dir)
                    print(f"{workload} {seed} {'quick' if quick else 'full'} "
                          f"{job['digest'] or '-'}", flush=True)
                    for f in job["failures"]:
                        print(f"# FAILED: {workload} {seed}: {f}", flush=True)
                    failed += job["failed"]
    except e2e.BenchError as e:
        print(f"e2e_digests: {e}", file=sys.stderr)
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
