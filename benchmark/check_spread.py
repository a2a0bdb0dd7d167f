#!/usr/bin/env python3
"""Steadiness check of the benchmark, the way the driver judges it.

Runs `BENCHMARK.json`'s command N times per workload (default 10), each
with another seed, and prints for every end-to-end metric the distance
between the first and third quartile of the N values as a share of their
median, next to the metric's bound. `setup_s` is reported but not judged.

    python3 benchmark/check_spread.py [--runs N] [--first-seed S] [--workload W]... [--values]

Run it from the repository root. Exit code 1 if any spread exceeds its
bound, or any run fails or reports failed operations.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    contract = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    bad = False
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            cmd = contract["command"] + [
                "--workload", workload,
                "--seed", str(args.first_seed + i),
                "--seconds", str(contract["run_seconds"]),
                "--trace", "0",
            ]
            run = subprocess.run(cmd, capture_output=True, text=True)
            if run.returncode != 0:
                print(f"{workload} seed {args.first_seed + i}: exit {run.returncode}\n{run.stderr}")
                return 1
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {args.first_seed + i}: {result['failed']} failed operations")
                bad = True
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            median = statistics.median(values[name])
            spread = (q3 - q1) / median
            if name == "setup_s":
                verdict = "not judged"
            elif spread > bound:
                verdict, bad = "OVER THE BOUND", True
            elif spread > bound / 3:
                verdict = "over a third of the bound"
            else:
                verdict = "steady"
            print(
                f"{workload:<15} {name:<16} median {median:>14.4f} "
                f"spread {spread:.4f} bound {bound:.2f}  {verdict}",
                flush=True,
            )
            if args.values:
                print("    " + " ".join(f"{v:.5g}" for v in values[name]), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
