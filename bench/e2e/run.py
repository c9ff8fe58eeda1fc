#!/usr/bin/env python3
"""Builds rmrls_bench from source and runs it; the BENCHMARK.json command.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark package (bench/e2e/CMakeLists.txt, Release) under the build
directory, $CARGO_TARGET_DIR or .bench_build; later calls rebuild only what
changed. Build output goes to stderr, so the last line of stdout stays the
benchmark's JSON result. Every argument is passed on to rmrls_bench.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the benchmark; exits on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "e2e")
    build(build_dir)
    bench = os.path.join(build_dir, "rmrls_bench")
    args = [bench, "--work-dir", os.path.join(root, "work")] + sys.argv[1:]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
