#!/usr/bin/env python3
"""Build and run fleetbench, the serving-fleet benchmark.

One run:
    python3 fleetbench/run.py --workload parse-unique --seed 1 \
        --seconds 20 --trace 0

builds the benchmark (CMake, Release) under .bench_build/ on first use,
runs one measurement and relays its output; the last stdout line is the
run's JSON result.  --trace 1 reports the per-layer metrics instead of
the end-to-end ones and writes the run's spans to .bench_build/results/.
A run with a wrong answer prints its result and exits 1.

Repeated runs, to check that the figures are steady:
    python3 fleetbench/run.py --workload parse-unique --seed 1 \
        --seconds 20 --trace 0 --repeat 10

runs seeds seed, seed+1, ... and prints each metric's median, quartiles
and quartile spread (IQR / median).  --overhead adds a traced run per
seed and reports the tracing overhead on the open-loop median latency.

Run from the root of the repository checkout; everything it writes
stays under .bench_build/.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "fleetbench")
BINARY = os.path.join(BUILD, "fleetbench")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build the benchmark once per checkout (locked, so
    concurrent runs do not race on the build tree)."""
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "--target", "fleetbench",
               "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_once(workload, seed, seconds, trace, relay):
    """One fleetbench run; returns its parsed result or None."""
    # Relative to ROOT, which keeps the unix socket paths short.
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", ".bench_build/run",
           "--out-dir", ".bench_build/results"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: timed out")
        return None
    lines = proc.stdout.splitlines()
    if relay:
        for line in lines:
            print(line, flush=True)
    if proc.returncode == 1 and lines:
        log(f"{workload} seed {seed}: wrong answers")
    elif proc.returncode != 0 or not lines:
        log(f"{workload} seed {seed}: exit code {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload} seed {seed}: no JSON result line")
        return None


def record(workload, seed):
    """The record an untraced run leaves in .bench_build/results."""
    path = os.path.join(WORK, "results", f"{workload}-seed{seed}.json")
    with open(path) as f:
        return json.load(f)


def spread_table(workload, runs):
    """Median, quartiles and IQR / median of every metric across runs."""
    names = list(runs[0]["metrics"])
    summary = {}
    print(f"\n{workload}: {len(runs)} runs")
    print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) >= 2:
            q1, med, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = med = q3 = values[0]
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        print(f"{name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.3f}")
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs with seeds seed..seed+N-1; prints medians "
                         "and quartiles across them")
    ap.add_argument("--overhead", action="store_true",
                    help="with --repeat: also a traced run per seed, to "
                         "report tracing overhead")
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 1

    if args.repeat <= 1 and not args.overhead:
        result = run_once(args.workload, args.seed, args.seconds,
                          args.trace, relay=True)
        return 0 if result is not None and result["correct"] else 1

    runs, traced = [], []
    for k in range(max(1, args.repeat)):
        seed = args.seed + k
        result = run_once(args.workload, seed, args.seconds, args.trace,
                          relay=False)
        if result is None or not result["correct"]:
            log(f"seed {seed}: failed or wrong answers")
            return 1
        runs.append(result)
        if args.overhead:
            result = run_once(args.workload, seed, args.seconds, 1,
                              relay=False)
            if result is None or not result["correct"]:
                log(f"seed {seed}: traced run failed")
                return 1
            traced.append(result)
        log(f"seed {seed}: done")
    summary = {"workload": args.workload, "runs": len(runs),
               "metrics": spread_table(args.workload, runs)}
    if traced:
        layer = spread_table(args.workload + " (traced)", traced)
        # Untraced runs keep their open-loop median latency in the run
        # record (it is not an end-to-end metric).
        untraced = statistics.median(
            record(args.workload, args.seed + k)["latency_p50_ms"]
            for k in range(len(runs)))
        overhead = layer["trace.latency_p50_ms"]["median"] - untraced
        print(f"tracing overhead on the open-loop median latency: "
              f"{overhead:.6g} ms ({overhead / untraced:+.1%})")
        summary["tracing_overhead_ms"] = overhead
        summary["per_layer"] = layer
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
