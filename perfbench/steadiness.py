#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Usage: python3 perfbench/steadiness.py WORKLOAD [--seeds 1-10] [--seconds 30] [--trace 0]

For every metric it prints the median and the distance between the first
and third quartiles as a share of the median, the figure BENCHMARK.json's
bounds are set against. Run from the root of the repository.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    lo, hi = (int(x) for x in a.seeds.split("-"))
    values = {}
    for seed in range(lo, hi + 1):
        t0 = time.monotonic()
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", a.workload, "--seed", str(seed),
             "--seconds", a.seconds, "--trace", a.trace],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({time.monotonic() - t0:.1f} s): "
              + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
              flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med
        else:
            spread = 0.0
        print(f"{a.workload} {name}: median {med:.6g} spread {spread:.4f} (n={len(vs)})")


if __name__ == "__main__":
    main()
