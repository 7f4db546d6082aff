#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json, untraced, once for each of
the seeds 1..10 on every workload, for BENCHMARK.json's run_seconds each,
and prints per metric the median of the ten runs and the distance between
their first and third quartile as a share of the median (Python's
statistics.quantiles(values, n=4)), next to the metric's bound. Exits 1 if
any run failed an operation or a check, or any spread exceeds its bound.

    python3 tcbench/spread.py                  # from the repository root
    python3 tcbench/spread.py --json spread.json

It builds nothing itself: the first run of the command builds the
benchmark.
"""

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    everything = {}
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)
            runs.append(result)
        everything[w] = runs
        print(f"\n{w}: seeds {SEEDS.start}..{SEEDS.stop - 1}, {seconds} s each")
        print(f"  {'metric':<20} {'median':>14} {'IQR/median':>11} {'bound':>6}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bound:
                flag = "  over bound"
                ok = False
            elif spread > bound / 3:
                flag = "  over a third of bound"
            print(f"  {name:<20} {med:>14.4f} {spread:>11.4f} {bound:>6}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(everything, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
