#!/usr/bin/env python3
"""Build and run the qkmps end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qkmps checkout. The first call configures and builds
perfbench/ (the qkmps library, the serving_rankd worker and the qkbench
driver) into .bench_build/; later calls rebuild incrementally. Build output
goes to stderr, so the last line of stdout is the driver's JSON result.
Exits non-zero, without a result, when the sources are missing or the build
or the run fails.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 1500


def build(root):
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "qkbench")


def main():
    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", "tools", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"run.py: {needed} not found; run from the root of a qkmps "
                  "checkout", file=sys.stderr)
            return 2
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
