#!/usr/bin/env python3
"""Builds the service benchmark from source and runs one workload.

Run from the repository root:

    python3 servicebench/run.py --workload search_banded --seed 1 \
        --seconds 10 --trace 0
    python3 servicebench/run.py --self-test   # the arithmetic tests

The build goes to $CARGO_TARGET_DIR if set, else .bench_build (relative to
the current directory). Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit code is the benchmark's;
a failed build exits 2 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, targets):
    """Configures (once) and builds `targets`; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target"] +
                 targets)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if argv == ["--self-test"]:
        if not build(build_dir, ["bench_math_test"]):
            return 2
        return subprocess.run([os.path.join(build_dir, "bench_math_test")]
                              ).returncode
    if not build(build_dir, ["service_bench"]):
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(build_dir, "service_bench")] + argv +
                          ["--out-dir", build_dir]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
