#!/usr/bin/env python3
"""Repository benchmark: open-loop NEXMark with committed-output latency.

Run from the repository root:

    python3 perfbench/run.py --workload q1-wide --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the engine sources plus the runner) into .bench_build on
first use, runs the generator and oracle unit checks for the seed, then one
benchmark run. The runner prints one "name value unit" line per metric and,
as the last line, a JSON object with "correct", "attempted", "failed" and
"metrics" (end-to-end metrics with --trace 0, per-layer with --trace 1).
Exits non-zero without a result when the build, the checks or the run fail.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")


def run(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {os.path.basename(cmd[0])} timed out")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)

    check = run([os.path.join(build_dir, "perfbench_check"),
                 "--seed", str(args.seed)])
    if check.returncode != 0:
        sys.exit("perfbench: generator/oracle checks failed")
    print(check.stdout, end="")

    bench = run([os.path.join(build_dir, "perfbench_nexmark"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)])
    print(bench.stdout, end="")
    if bench.returncode != 0:
        sys.exit(f"perfbench: run failed with status {bench.returncode}")


if __name__ == "__main__":
    main()
