#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark binary from the
checkout's sources (CMake, Release) into the build directory named by
CARGO_TARGET_DIR (default .bench_build), then runs one workload and passes
its output through. The binary's last stdout line is the result object:
{"correct", "attempted", "failed", "metrics"}. Build output goes to stderr.
The exit code is non-zero when the build fails, a check fails, or the
result line is missing.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("admit_churn", "converge_burst", "place_fig09", "label_train")
BINARY = "costream_perfbench"


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    source = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", BINARY, "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    scratch = os.path.join(build_dir, "runs")
    os.makedirs(scratch, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--scratch", scratch],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        print("perfbench: no result line from the benchmark", file=sys.stderr)
        return proc.returncode or 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
