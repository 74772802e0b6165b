#!/usr/bin/env python3
"""Builds the perfbench binary from the checkout's sources, then runs it.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload hot-authz --seed 1 --seconds 10 --trace 0

The build lives in .bench_build/ at the root of the checkout (the
CARGO_TARGET_DIR environment variable overrides the location). Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. The exit code is the benchmark's, or the build's
when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return configure.returncode
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr).returncode


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    status = build(build_dir)
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return status or 1
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
