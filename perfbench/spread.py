#!/usr/bin/env python3
"""Measures the benchmark's own noise: runs it on each named workload with
several seeds and prints, per end-to-end metric, the median of the runs and
their spread (first-to-third quartile distance over the median) next to the
metric's bound from BENCHMARK.json.

usage (from the repository root):
    python3 perfbench/spread.py [--runs N] [--first-seed S] WORKLOAD...

A run that exits non-zero or reports `correct: false` is printed and counted
as failed. Nothing is written to disk.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="+")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    known = {w["name"] for w in bench["workloads"]}
    for name in args.workloads:
        if name not in known:
            parser.error(f"unknown workload {name!r}")

    failed_runs = 0
    for name in args.workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            began = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.monotonic() - began
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                failed_runs += 1
                print(f"{name} seed {seed}: FAILED (exit {proc.returncode})")
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
                continue
            for metric, v in result["metrics"].items():
                values[metric].append(v["value"])
            print(f"{name} seed {seed} ({took:.1f} s): " + ", ".join(
                f"{m} {v['value']:.6g}" for m, v in result["metrics"].items()))
        for m in bench["end_to_end"]:
            vs = values[m["name"]]
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"{name:14s} {m['name']:12s} median {med:.6g} {m['unit']:4s} "
                  f"spread {spread:.4f} bound {m['bound']} "
                  f"({spread / m['bound']:.2f} of bound, n={len(vs)})")
    sys.exit(1 if failed_runs else 0)


if __name__ == "__main__":
    main()
