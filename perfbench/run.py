#!/usr/bin/env python3
"""Builds taco_serve and the perfbench program from this checkout, then runs
one workload of the serving benchmark.

    python3 perfbench/run.py --workload recalc_edit --seed 1 --seconds 30 --trace 0

Run it from the root of the checkout. The build goes to .bench_build/perfbench
and each run's files (workbooks, WAL, server log, spans) to
.bench_build/perfbench-run, both inside the checkout. The last line of
standard output is the JSON result; see perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
BUILD_TYPE = "Release"
# A run normally ends well within this; a hung run is stopped with a
# clear error instead of hanging its caller.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns the benchmark and server paths."""
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench", "taco_serve"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("build failed: %s\n" % " ".join(step))
                return None
    return (os.path.join(BUILD_DIR, "perfbench"),
            os.path.join(BUILD_DIR, "taco", "taco_serve"))


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["recalc_edit", "read_mostly", "durable_edit"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write("perfbench needs the repository sources next to "
                             "it; %s is missing\n" % needed)
            return 2
    built = build()
    if built is None:
        return 1
    bench, serve = built
    command = [bench, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--serve", serve, "--work-dir", WORK_DIR, "--commit", commit()]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench did not finish in %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
