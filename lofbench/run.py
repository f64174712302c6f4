#!/usr/bin/env python3
"""Runs the lofkit benchmark: builds it, writes inputs, times jobs.

Usage, from the repository root:

    python3 lofbench/run.py --workload small_jobs_2k --seed 1 --seconds 30
    python3 lofbench/run.py --seed 1            # every workload in turn

Each workload runs in its own `lofbench` process. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. See
lofbench/README.md for the workloads, the metrics and the trace.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["batch_100k_d5", "highdim_10k_d64", "resweep_200k_k50",
             "small_jobs_2k", "highdim_2k_d64"]

BUILD_TIMEOUT_S = 800
GEN_TIMEOUT_S = 60
# A run lasts --seconds, plus the warm-up, the job still running when time
# is up, and the checks.
RUN_GRACE_S = 120

HERE = os.path.dirname(os.path.abspath(__file__))


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_root):
    """Configures and builds the lofbench binary; returns its path or None."""
    build_dir = os.path.join(build_root, "lofbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "lofbench",
              "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build failed: {error}")
            return None
        if done.returncode != 0:
            log(f"build failed: {' '.join(step)}")
            return None
    return os.path.join(build_dir, "lofbench")


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def check_repeats(state_dir, key, summary, traced):
    """Compares this run's top lists and, on a traced run, its per-input
    work counts with earlier correct runs of the same seed and binary;
    returns the drifts found."""
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, key + ".json")
    state = {}
    if os.path.exists(path):
        with open(path) as f:
            state = json.load(f)
    drifts = []
    digest = hashlib.sha256(summary["top_digests"].encode()).hexdigest()
    if state.setdefault("top_digest", digest) != digest:
        drifts.append("top-10 ranking differs from an earlier run of this seed")
    if traced:
        counts = hashlib.sha256(summary["work_counts"].encode()).hexdigest()
        if state.setdefault("counts", counts) != counts:
            drifts.append("index work counts differ from an earlier traced "
                          "run of this seed")
    if drifts or not summary["correct"]:
        return drifts
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(state, f)
    os.replace(tmp, path)
    return drifts


def run_workload(program, build_root, workload, seed, seconds, trace):
    """Generates the inputs and runs one workload; returns its summary."""
    work = os.path.join(build_root, "lofbench_work", workload)
    out_dir = os.path.join(build_root, "lofbench_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        gen = subprocess.run(
            [program, "gen", "--workload", workload, "--seed", str(seed),
             "--dir", work],
            stdout=sys.stderr, stderr=sys.stderr, timeout=GEN_TIMEOUT_S)
        if gen.returncode != 0:
            return None
        trace_out = os.path.join(out_dir, f"trace-{workload}-{seed}.json")
        done = subprocess.run(
            [program, "run", "--workload", workload, "--seed", str(seed),
             "--dir", work, "--seconds", str(seconds), "--trace", str(trace),
             "--trace-out", trace_out if trace else ""],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out")
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return None
    print("\n".join(lines[:-1]), flush=True)
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    key = f"{workload}-seed{seed}-{file_digest(program)}"
    drifts = check_repeats(os.path.join(build_root, "lofbench_state"), key,
                           summary, trace == 1)
    for drift in drifts:
        print(f"FAILED: {drift}")
    summary["failed"] += len(drifts)
    summary["correct"] = summary["correct"] and not drifts
    if trace:
        print(f"trace: {trace_out}")
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_root = os.path.abspath(".bench_build")
    program = build(build_root)
    if program is None:
        return 1
    workloads = [args.workload] if args.workload else WORKLOADS
    results = {}
    for workload in workloads:
        print(f"== {workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}", flush=True)
        summary = run_workload(program, build_root, workload, args.seed,
                               args.seconds, args.trace)
        if summary is None:
            log(f"{workload}: no result")
            return 1
        results[workload] = summary

    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}/{name}": value for w, s in results.items()
                   for name, value in s["metrics"].items()}
    result = {
        "correct": all(s["correct"] for s in results.values()),
        "attempted": sum(s["attempted"] for s in results.values()),
        "failed": sum(s["failed"] for s in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
