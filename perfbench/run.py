#!/usr/bin/env python3
"""Builds and runs the valcon benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/CMakeLists.txt (the library
sources plus the valcon_perfbench program) into the directory named by
CARGO_TARGET_DIR, or .bench_build when it is unset; later runs only
re-check the build. Build output goes to stderr, so the last line of
stdout is the program's JSON result. The exit status is the program's: 0
when every correctness check holds, 1 when one fails, 2 on usage or
environment errors (such as a directory without the valcon sources).
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sweep-small", "certs-heavy", "committee-large-n", "sim-storm")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def cached_source_dir(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if cached_source_dir(build_dir) not in (None, source):
        # A build tree configured for another checkout: start afresh.
        shutil.rmtree(build_dir)
    run_quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if cached_source_dir(build_dir) is None:
        cmd = ["cmake", "-S", source, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, check=False, **run_quiet).returncode != 0:
            fail("configuring the benchmark failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, check=False, **run_quiet).returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(build_dir, "valcon_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/valcon/sim/simulator.hpp", "tests/golden/full.sha256"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a valcon checkout: %s is missing" % needed)

    build_dir = os.path.abspath(
        os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(root, build_dir)
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    sys.stdout.flush()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--root", root, "--out-dir", traces]
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
