#!/usr/bin/env python3
"""Build the FW-KV benchmark from source and run one workload once.

    python3 perfbench/run.py --workload ycsb_inline --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The first run configures and builds
perfbench/ (and the simulator's libraries under src/) into
.bench_build/perfbench; later runs only check that the build is current.
Build output goes to standard error. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. The
exit code is not 0 when the build fails or a check of the run's outputs
fails; then no result line is printed.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

# A run must end within 180 s, or 900 s when it has to build first.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 880


def build():
    """Configure if needed and build fwkv_bench. True when it is current."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no src/ beside perfbench/; run from a full checkout",
              file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "fwkv_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    start = time.monotonic()
    fresh = not (BUILD / "CMakeCache.txt").is_file()
    if not build():
        return 1
    limit = BUILD_LIMIT_S if fresh else RUN_LIMIT_S
    cmd = [str(BUILD / "fwkv_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    try:
        done = subprocess.run(cmd, cwd=ROOT,
                              timeout=max(1.0, limit - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
