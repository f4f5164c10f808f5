#!/usr/bin/env python3
"""Build and run the qucad workload benchmark.

    python3 perfbench/run.py --workload <serve_wire|drift_adapt>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library and the benchmark program (Release) under .bench_build/; later calls
only rebuild what changed. The program's standard output is passed through:
its last line is the JSON result, the line before it the run metadata.
Traced runs also write a Chrome trace to .bench_build/traces/.
See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "qucad_perfbench")
WORKLOADS = ("serve_wire", "drift_adapt")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; build output goes to stderr."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True)


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found next to perfbench/; run from a full "
                  "checkout of the repository", file=sys.stderr)
            return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--trace-dir", os.path.join(ROOT, ".bench_build", "traces"),
               "--commit", commit()]
    # A program that crashes or times out is a failed run: no result line.
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    if run.returncode != 0:
        print(f"perfbench: qucad_perfbench exited with {run.returncode}", file=sys.stderr)
        return run.returncode if run.returncode > 0 else 4
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
