#!/usr/bin/env python3
"""End-to-end benchmark: file-to-shots jobs timed end to end and layer by layer.

Run from the repository root:

    python3 bench_e2e/run.py                      # every workload, seed 1
    python3 bench_e2e/run.py --workload front_end --seed 7 --trace 1
    python3 bench_e2e/run.py --runs 10 --out set1.json   # one compare.py set
    python3 bench_e2e/run.py --quick              # ~1/8 size, one warm job

It builds bench_e2e and pec_worker from source into .bench_build/e2e, then
for each workload and seed:

  1. generates the layout file from the seed (its own process);
  2. --trace 0: runs one cold job in each of three fresh processes (setup_s
     and peak_rss_mb are their medians), then a closed loop of warm
     run_data_prep jobs for --seconds in one process, and reports the
     end-to-end metrics. Times are in reference-host seconds: each wall time
     is scaled by a host-speed probe timed next to it (host_probe.h), so the
     drift of a shared machine cancels; raw wall times are printed too;
     --trace 1: alternates run_data_prep with a traced job that calls each
     layer in turn, and reports the per-layer metrics and a self-time table;
  3. checks the outputs (bench_e2e.cpp checks each job; this script checks
     that every process produced the same shot digest).

It prints every metric as `name value unit`, writes all runs with their
context to build/bench_e2e/results.json (or --out), and prints as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}. The exit
code is 0 only when every output was correct.
"""
import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2e"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COLD_PROCESSES = 3
RUN_DEADLINE_S = 170  # a run must end within 180 s, the build excluded
BESIDE_UNITS = {"pec_max_error": "ratio", "epe_p50_dbu": "dbu", "epe_p99_dbu": "dbu",
                "vsb_write_s": "s", "worker_peak_rss_mb": "MB", "job_wall_s": "s",
                "setup_wall_s": "s", "probe_s": "s"}


class BenchError(Exception):
    pass


def child_env():
    # Ambient EBL_* knobs (thread counts, fault plans, worker paths) would
    # change what is measured; the jobs pin what they need.
    return {k: v for k, v in os.environ.items() if not k.startswith("EBL_")}


def call(args, timeout, log=None):
    """Runs a child in its own process group and returns its stdout. On a
    timeout the whole group (the bench and its pec_worker children) is
    killed and waited for."""
    proc = subprocess.Popen([str(a) for a in args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args[0]} {args[1]}: timed out after {timeout:.0f} s")
    if log is not None:
        log.write_text(out + err)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, args))}: exit {proc.returncode}\n"
                         + err[-2000:])
    return out


def build():
    if not (ROOT / "src" / "core" / "job.h").exists():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], 300,
             BUILD / "configure.log")
    jobs = str(min(4, os.cpu_count() or 1))
    call(["cmake", "--build", BUILD, "-j", jobs], 800, BUILD / "build.log")
    return BUILD / "bench_e2e"


def bench(exe, mode, deadline, *args):
    out = call([exe, mode, *args], deadline - time.monotonic())
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_once(exe, workload, seed, seconds, trace, quick):
    """One benchmark run of one workload; returns the run record."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    (BUILD / "inputs").mkdir(exist_ok=True)
    gen = ["--workload", workload, "--seed", str(seed), "--out-dir", BUILD / "inputs"]
    layout = bench(exe, "gen", deadline, *gen, *(["--quick"] if quick else []))["layout"]
    common = ["--workload", workload, "--input", layout, "--seconds", str(seconds),
              *(["--min-jobs", "1"] if quick else [])]
    record = {"workload": workload, "seed": seed, "trace": trace, "quick": quick}
    failures = []

    if trace:
        (BUILD / "traces").mkdir(exist_ok=True)
        trace_path = BUILD / "traces" / f"{workload}-{seed}.json"
        t = bench(exe, "trace", deadline, *common, "--trace-out", trace_path)
        attempted, failed = t["attempted"], t["failed"]
        failures += t["failures"]
        metrics = {}
        for m in SPEC["per_layer"]:
            # A counter the workload never reaches (no PEC, no EPE) is 0;
            # every layer time is measured on every workload.
            values = t["metrics"].get(m["name"], [0.0])
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        record["self_ms"] = {k: statistics.median(v) for k, v in t["self_ms"].items()}
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        colds = [bench(exe, "cold", deadline, "--workload", workload, "--input", layout)
                 for _ in range(1 if quick else COLD_PROCESSES)]
        r = bench(exe, "run", deadline, *common)
        attempted = r["attempted"] + sum(c["attempted"] for c in colds)
        failed = r["failed"] + sum(c["failed"] for c in colds)
        failures += r["failures"] + [f for c in colds for f in c["failures"]]
        digests = {r["digest"]} | {c["digest"] for c in colds}
        if len(digests) != 1:
            failures.append(f"shot digests differ between processes: {sorted(digests)}")
            failed += 1
        # Times in reference-host seconds: each wall time scaled by the host
        # probes measured next to it (host_probe.h), so host drift cancels.
        # A warm job sits between probes i and i + 1.
        ref, probes = r["probe_reference_s"], r["probe_s"]
        job_ref = [ref * j / (probes[i] * probes[i + 1]) ** 0.5
                   for i, j in enumerate(r["job_s"])]
        setup_ref = [ref * c["setup_s"] / c["probe_s"] for c in colds]
        job_s = statistics.median(job_ref)
        p25, p75 = quartiles(job_ref)
        values = {"job_s": job_s, "shots_per_s": r["shots"] / job_s,
                  "setup_s": statistics.median(setup_ref),
                  "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in colds)}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        metrics["job_s"].update({"p25": p25, "p75": p75, "n": len(job_ref)})
        record["samples"] = {"job_s": job_ref, "setup_s": setup_ref,
                             "job_wall_s": r["job_s"], "probe_s": r["probe_s"],
                             "setup_wall_s": [c["setup_s"] for c in colds]}
        record["threads"] = r["threads"]
        # Reported beside the end-to-end metrics; README.md says why they are
        # not end-to-end metrics.
        record["beside"] = {k: r[k] for k in ("pec_max_error", "epe_p50_dbu", "epe_p99_dbu",
                                              "vsb_write_s")}
        record["beside"].update(
            worker_peak_rss_mb=max(c["worker_peak_rss_mb"] for c in colds),
            job_wall_s=statistics.median(r["job_s"]),
            setup_wall_s=statistics.median(c["setup_s"] for c in colds),
            probe_s=statistics.median(r["probe_s"]))
    record.update(attempted=attempted, failed=failed, failures=failures[:20],
                  fail_frac=failed / attempted, correct=failed == 0, metrics=metrics)
    return record


def print_record(rec):
    print(f"# {rec['workload']} seed {rec['seed']} trace {rec['trace']}"
          f"{' quick' if rec['quick'] else ''}")
    for name, m in rec["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
        for k in ("p25", "p75", "n"):
            if k in m:
                print(f"{name}.{k} {m[k]:.6g} {m['unit'] if k != 'n' else 'count'}")
    print(f"fail_frac {rec['fail_frac']:.6g} ratio")
    for k, v in rec.get("beside", {}).items():
        print(f"{k} {v:.6g} {BESIDE_UNITS[k]}")
    if "self_ms" in rec:
        total = sum(rec["self_ms"].values())
        print(f"# self time per span (median ms, share of the traced job); "
              f"trace: {rec['trace_file']}")
        for k, v in sorted(rec["self_ms"].items(), key=lambda kv: -kv[1]):
            print(f"#   {k:<20} {v:10.3f} ms {100 * v / total:6.1f} %")
    for f in rec["failures"]:
        print(f"# FAILED: {f}")


def context():
    cache = {}
    cache_file = BUILD / "CMakeCache.txt"
    if cache_file.exists():
        for line in cache_file.read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"git_sha": sha, "nproc": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "machine": platform.machine(), "python": platform.python_version()}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--runs", type=int, default=1,
                   help="runs per workload, with seeds seed, seed+1, ...")
    p.add_argument("--quick", action="store_true",
                   help="each workload at ~1/8 size, one warm job, one cold process")
    p.add_argument("--out", type=Path, default=ROOT / "build" / "bench_e2e" / "results.json")
    a = p.parse_args()
    if a.quick:
        a.seconds = 0
    workloads = WORKLOADS if a.workload == "all" else [a.workload]

    try:
        exe = build()
        records = []
        for w in workloads:
            for i in range(a.runs):
                rec = run_once(exe, w, a.seed + i, a.seconds, a.trace, a.quick)
                print_record(rec)
                records.append(rec)
    except BenchError as e:
        print(f"bench_e2e: {e}", file=sys.stderr)
        return 1

    ctx = context()
    ctx["threads"] = records[0].get("threads", 2)
    a.out.parent.mkdir(parents=True, exist_ok=True)
    a.out.write_text(json.dumps({"context": ctx, "runs": records}, indent=1) + "\n")
    print(f"# wrote {a.out}")

    if len(records) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in records[0]["metrics"].items()}
    else:
        metrics = {}
        for w in workloads:
            runs = [r for r in records if r["workload"] == w]
            for k, m in runs[0]["metrics"].items():
                metrics[f"{w}/{k}"] = {"value": statistics.median(r["metrics"][k]["value"]
                                                                  for r in runs),
                                       "unit": m["unit"]}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
