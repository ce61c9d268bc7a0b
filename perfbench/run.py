#!/usr/bin/env python3
"""Builds the served program and the benchmark program, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload interactive|batch|approx|fleet \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The build goes to perfbench/build (CMake, RelWithDebInfo): the repository's
own CMakeLists.txt, without its tests and benches, builds the shapley library
and example_cli into perfbench/build/shapley. Spans and saved figures go to
perfbench/out. The last line of standard output is the result object that
perfbench/README.md describes. Build output goes to standard error.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")


def build(targets):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=870)
        if done.returncode != 0:
            sys.stderr.write("build failed: %s\n" % " ".join(step))
            return False
    return True


def main(argv):
    if argv == ["--selftest"]:
        if not build(["perfbench_selftest"]):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              timeout=170).returncode
    if not build(["shapbench", "example_cli"]):
        return 1
    os.makedirs(OUT, exist_ok=True)
    command = [os.path.join(BUILD, "shapbench"),
               "--cli", os.path.join(BUILD, "shapley", "example_cli"),
               "--out", OUT] + argv
    try:
        return subprocess.run(command, timeout=170).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("benchmark run exceeded 170 s\n")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
