#!/usr/bin/env python3
"""Builds and runs the host benchmark of the autoGEMM library.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and builds
the library and the benchmark under .bench_build/hostbench; later runs only
rebuild what changed. Then the benchmark's self-test runs, then the
workload. The workload's output is passed through, and its last line is the
JSON result, checked here against the metric list in BENCHMARK.json. Any
failing step exits non-zero with a message naming the step. Spans of a
traced run are written to .bench_build/traces/WORKLOAD.jsonl.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hostbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 160


def fail(step, why):
    print(f"hostbench: step '{step}' failed: {why}", file=sys.stderr)
    sys.exit(1)


def run(step, cmd, timeout, log=None):
    """Runs cmd to completion (killing it at the timeout); returns stdout."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(step, f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    except OSError as e:
        fail(step, f"cannot run {cmd[0]}: {e}")
    if log is not None:
        with open(log, "a") as f:
            f.write(p.stdout)
    if p.returncode != 0:
        tail = "\n".join(p.stdout.splitlines()[-30:])
        fail(step, f"exit code {p.returncode}: {' '.join(cmd)}\n{tail}")
    return p.stdout


def build(deadline):
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured for another checkout
                os.makedirs(BUILD_DIR)
    run("configure", configure, max(1, deadline - time.time()), log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run("build", ["cmake", "--build", BUILD_DIR, "-j", jobs],
        max(1, deadline - time.time()), log)


def check_result(line, names):
    try:
        res = json.loads(line)
    except ValueError:
        fail("result", f"last line is not JSON: {line[:200]}")
    if not isinstance(res, dict) or sorted(res) != ["attempted", "correct",
                                                    "failed", "metrics"]:
        fail("result", "result keys must be correct, attempted, failed, metrics")
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != names:
        fail("result", f"metrics {sorted(got.items())} differ from "
                       f"BENCHMARK.json {sorted(names.items())}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    set_vars = sorted(k for k in os.environ if k.startswith("AUTOGEMM_"))
    if set_vars:
        fail("environment", "unset " + ", ".join(set_vars) +
             ": they change what the library does")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("config", f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("arguments", f"unknown workload {args.workload}")
    names = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    build(time.time() + BUILD_TIMEOUT_S)
    run("selftest", [os.path.join(BUILD_DIR, "hostbench_selftest")], 60)

    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "hostbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(TRACE_DIR, args.workload + ".jsonl")]
    out = run("workload", cmd, RUN_TIMEOUT_S)
    lines = out.rstrip("\n").splitlines()
    if not lines:
        fail("result", "the workload printed nothing")
    check_result(lines[-1], names)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
