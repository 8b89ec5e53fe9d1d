#!/usr/bin/env python3
"""Builds the stack benchmark from source and runs one workload.

    python3 stackbench/run.py --workload cluster_bursty --seed 42 \
        --seconds 10 --trace 0

Run it from the repository root. The simulator libraries and the benchmark
are compiled with CMake (Release) into $CARGO_TARGET_DIR/stackbench, or
.bench_build/stackbench when that variable is unset; later runs only
rebuild what changed. Build output goes to stderr. The benchmark's stdout is
passed through: a setup record, then, as the last line, the result
object {correct, attempted, failed, metrics}. Any failure (build, run,
correctness gate, malformed result) exits non-zero without a result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cluster_bursty", "fleet_outputs", "longread_sw")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"stackbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns its path."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "stackbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        step = subprocess.run(configure, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if step.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = subprocess.run(["cmake", "--build", build_dir, "--target",
                           "stack_bench", "-j", jobs],
                          stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if step.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "stack_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--export", default="",
                        help="cluster_bursty: write dataset, trace and "
                             "cluster JSON into this directory")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.export:
        command += ["--export", args.export]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"run exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("run printed no result line")
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        fail("malformed result line")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
