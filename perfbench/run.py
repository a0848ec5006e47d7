#!/usr/bin/env python3
"""Builds the churned-soak benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload mid --seed 7 --seconds 10 --trace 0

The first call configures and builds the library and the benchmark program
into $CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed. Build output goes to stderr, so the program's JSON result stays the
last line of stdout. The process exits non-zero, without a result, when the
build fails, e.g. in a directory that holds the benchmark but not the
library sources.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def build(build_dir):
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(build_dir), "-j", jobs]):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["light", "mid", "saturated", "burst"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run(
        [str(build_dir / "soak_bench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
