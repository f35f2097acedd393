#!/usr/bin/env python3
"""Build and run anonet's benchmark program.

    python3 perfbench/run.py --workload tables|zoo|engine --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (which compiles libanonet from src/) into .bench_build/; later
calls only rebuild what changed. Build output goes to stderr, so the last
line of stdout is always the program's JSON result. Exits non-zero without a
result when the build fails (for instance when src/ is missing).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: anonet sources (src/) not found", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def revision():
    try:
        result = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    text = result.stdout.strip()
    return text if result.returncode == 0 and text else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["tables", "zoo", "engine"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the stats/audit self-test")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_selftest"):
            return 2
        binary = os.path.join(BUILD_DIR, "perfbench_selftest")
        return subprocess.run([binary, WORK_DIR]).returncode

    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 2
    binary = os.path.join(BUILD_DIR, "perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR, "--revision", revision()]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
