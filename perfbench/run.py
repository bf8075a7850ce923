#!/usr/bin/env python3
"""Build and run the NDPExt host-time benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload graph-fig5 --seed 1 --seconds 30 \
        --trace 0

Configures and builds perfbench/ (the simulator libraries from src/ plus
the benchmark program) into .bench_build/perfbench (a full build on
first use, a no-op after), then runs it. Build output goes to stderr;
its stdout is passed through, and the last line is the JSON result.
Spans of a traced run are written under .bench_build/perfbench-out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("graph-fig5", "recsys-engine", "serving-resume")
JOBS = "4"


def build(build_dir):
    """Configure and (re)build; returns the program's path."""
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, env=env, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", JOBS, "--target",
         "ndpext_perfbench"],
        stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "ndpext_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        exe = build(os.path.join(ROOT, ".bench_build", "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    return subprocess.run(
        [exe, f"--workload={args.workload}", f"--seed={args.seed}",
         f"--seconds={args.seconds}", f"--trace={args.trace}",
         f"--out={out_dir}"]).returncode


if __name__ == "__main__":
    sys.exit(main())
