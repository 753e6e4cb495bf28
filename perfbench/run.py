#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <ingest|retrieve|serve> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The library (../src) and the benchmark are
configured and built with CMake into $CARGO_TARGET_DIR (default
.bench_build) -- a no-op rebuild when nothing changed -- then
`rapids_bench` runs with the same arguments. Its stdout (whose last line
is the JSON result) is passed through; build output goes to stderr.
Workspaces and trace files are written below <build dir>/out and the
workspaces are removed when the run ends.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmake_dir = os.path.join(build, "cmake")
    out_dir = os.path.join(build, "out")
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", cmake_dir, "-j", "4", "--target", "rapids_bench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    binary = os.path.join(cmake_dir, "rapids_bench")
    cmd = [binary, *sys.argv[1:], "--out", out_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
