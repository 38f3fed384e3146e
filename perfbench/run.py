#!/usr/bin/env python3
"""Build and run the ptgsched benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload emts10-n100 --seed 1 --seconds 25 --trace 0

Builds the library sources under src/ plus the benchmark sources in
perfbench/ as one Release CMake project (incrementally; the first build
takes about a minute) into $CARGO_TARGET_DIR, or .bench_build when unset,
then runs the perfbench binary from the repository root with the given
arguments. Its standard output passes through unchanged: the last line is
the JSON result. Build logs go to standard error, and only when the build
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    # The binary reads BENCHMARK.json and writes its scratch files
    # relative to the repository root.
    proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
