#!/usr/bin/env python3
"""Serving benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload pairs-skewed --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Builds the library and the benchmark program from source into .bench_build/
at the repository root, writes the workload's inputs, runs the program on
those files and passes its output through. The last stdout line is the
result object.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd, killing and reaping it on timeout."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run.py: {os.path.basename(cmd[0])} exceeded {timeout} s")
        sys.exit(3)
    if proc.returncode != 0:
        log(f"run.py: {' '.join(cmd)} exited with {proc.returncode}")
        sys.exit(proc.returncode if proc.returncode > 0 else 3)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: the library sources (src/) are missing; nothing to build")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300,
                    stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs], 840,
                stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        run_checked([os.path.join(BUILD_DIR, "perfbench_selftest")], 120)
        return
    if not args.workload:
        parser.error("--workload is required")

    program = os.path.join(BUILD_DIR, "perfbench")
    work = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        data = os.path.join(work, "data")
        os.makedirs(data)
        workload = ["--workload", args.workload]
        run_checked([program, "generate", *workload, "--out", data], 120,
                    stdout=sys.stderr)
        trace_out = os.path.join(ROOT, ".bench_build",
                                 f"trace-{args.workload}.jsonl")
        run_checked([program, "run", *workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--data", data,
                     "--trace-out", trace_out],
                    RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
