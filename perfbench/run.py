#!/usr/bin/env python3
"""Build and run the repo benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_scale --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench, then runs the driver with the given arguments plus
the reference fates and the trace output path. Build output goes to
stderr, so the driver's JSON result stays the last line of stdout. Exits
nonzero without a result if the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", jobs],
    ):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main(argv):
    build()
    workload = "all"
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv):
            workload = argv[i + 1]
    cmd = [
        os.path.join(BUILD, "perfbench_driver"),
        *argv,
        "--reference", os.path.join(HERE, "reference_fates.txt"),
        "--trace-out", os.path.join(BUILD, "trace-%s.json" % workload),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
