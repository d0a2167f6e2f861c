#!/usr/bin/env python3
"""Builds the themis benchmark binary and runs one workload.

    python3 perfbench/run.py --workload unique --seed 1 --seconds 15 --trace 0

The benchmark binary (perfbench/main.cc) is compiled with CMake into
.bench_build/perfbench together with the repository's layer libraries.
The last stdout line is the run's JSON result; the exit code is nonzero
when the build fails, a served answer is wrong, or the run does not finish.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_DIR = os.path.join(ROOT, ".bench_build", "data")
BINARY = os.path.join(BUILD_DIR, "themis_perfbench")
# The whole run, build excluded, must finish well inside three minutes.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "themis_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["unique", "hot_zipf"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1

    command = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--data-dir", DATA_DIR,
    ]

    started = time.monotonic()
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("benchmark run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    # Everything but the result line is the human-readable report.
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("benchmark printed no result line", file=sys.stderr)
        return 1
    print("run took %.1f s" % (time.monotonic() - started), file=sys.stderr)
    print(json.dumps(result))
    return 0 if child.returncode == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
