#!/usr/bin/env python3
"""Build the RCMP benchmark binary from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload payload_chaos --seed 1 --seconds 35 --trace 0

The binary is configured and built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); an
up-to-date build is a no-op. Build output goes to stderr, so the last
line of stdout is the binary's JSON result. With --trace 1 the spans of
the traced ops are written next to the build as spans-<workload>-<seed>.jsonl.
Exits non-zero without a result when the simulator sources are missing or
the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError) as err:
            print(f"error: benchmark build failed: {err}", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "workloads", "scenario.hpp")):
        print("error: simulator sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    out_dir = build_dir()
    if not build(out_dir):
        return 2

    cmd = [os.path.join(out_dir, "rcmp_perfbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--golden", os.path.join(HERE, "golden.txt")]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
