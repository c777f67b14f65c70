#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload lossy_sweep --seeds 1-10 [--trace 0]

For every metric of the chosen trace mode it prints the median, the
quartiles and the quartile spread (Q3 - Q1) as a share of the median, as
statistics.quantiles(values, n=4) gives them, next to the metric's bound
from BENCHMARK.json (end-to-end metrics only). Runs are sequential, so
they do not disturb each other's timings.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            sys.stderr.write(proc.stderr[-2000:])
            sys.exit("seed %d failed (exit %d)" % (seed, proc.returncode))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    print("%-34s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                            "spread", "bound"))
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-34s %12.6g %12.6g %12.6g %8.4f %6s" % (
            name, med, q1, q3, spread, "-" if bound is None else bound))


if __name__ == "__main__":
    main()
