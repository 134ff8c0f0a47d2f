#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 1 \\
        --seconds 30 --trace 0

It configures and builds perfbench/ (the simulator libraries plus the
hpa_perfbench program) into .bench_build/, then runs it; it
writes per-cell results and, with --trace 1, its spans into
.bench_out/. The last line of stdout is its JSON result.
Arguments after the four standard ones go to hpa_perfbench unchanged
(perfbench/smoke_test.py uses them to shrink the budgets).

Workloads: paper_sweep, long_single, paper_sweep_mt. Canonical seed 1,
held-out seed 7 (see perfbench/README.md).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "hpa_perfbench")


def build():
    """Configure once, then (re)build; all output goes to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper_sweep", "long_single",
                             "paper_sweep_mt"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args, extra = ap.parse_known_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", OUT] + extra
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
