#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from anywhere inside a checkout:

  python3 perfbench/run.py --workload dispatch --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest

Each run configures and builds perfbench/CMakeLists.txt (the `cca` library
from the repository sources, Release, tracing compiled out) into
.bench_build/perfbench, then runs the benchmark binary. Its last stdout line
is the JSON result. Build output goes to stderr. Traced runs also write a
Chrome trace to .bench_build/perfbench/traces/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("dispatch", "batch-solve", "whatif")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench", "perfbench_selftest"],
    ):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd[:2])} failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: {' '.join(cmd[:2])} exited {done.returncode}", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    if not build():
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")], timeout=600).returncode

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, timeout=3 * args.seconds + 120).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: the run did not finish in time", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
