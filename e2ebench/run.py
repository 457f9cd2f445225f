#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload release --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Builds the runner (e2ebench/CMakeLists
.txt, which compiles the library from ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload. All inputs are
generated from --seed inside .bench_work/, which is removed afterwards.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1. Build logs go to standard error. The exit code is 0 only when the
build succeeded and every output check passed.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("release", "serve_batch")
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return None
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    r = subprocess.run(["cmake", "--build", build_dir, "--target", "e2ebench",
                        "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        return None
    binary = os.path.join(build_dir, "e2ebench")
    return binary if os.path.exists(binary) else None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Reduced input sizes for the self-test (e2ebench/test/selftest.py).
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    # Adds one load over the tenant's epsilon budget (self-test only).
    p.add_argument("--probe-over-budget", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 2

    work = os.path.abspath(os.path.join(".bench_work",
                                        "%s-%d" % (args.workload, os.getpid())))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%r" % args.seconds, "--trace=%d" % args.trace,
           "--workdir=" + work, "--trace-out=" + os.path.abspath(".bench_out")]
    if args.tiny:
        cmd.append("--tiny")
    if args.probe_over_budget:
        cmd.append("--probe-over-budget")
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
