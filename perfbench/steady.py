#!/usr/bin/env python3
"""Steadiness check: run one workload N times and print, per end-to-end
metric, the median, the interquartile range and the full range (both as
a share of the median), normalised and raw.

    python3 perfbench/steady.py --workload gray-wire --runs 10 \
        [--seconds 20] [--first-seed 1] [--same-seed]

Each run gets its own seed (first-seed, first-seed+1, ...) unless
--same-seed is given. Quartiles are Python's statistics.quantiles(n=4),
the rule the bounds in BENCHMARK.json are checked with.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med, (max(values) - min(values)) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    norm, raw = {}, {}
    shares = set()
    for i in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else i)
        out = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"run {i} (seed {seed}) failed: exit {out.returncode}\n{out.stderr}")
            return 1
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            norm.setdefault(name, []).append(m["value"])
        for line in lines:
            if line.startswith("RAW "):
                for name, v in json.loads(line[4:]).items():
                    raw.setdefault(name, []).append(v)
        shares.add((result["failed"], result["attempted"]))
        print(f"run {i} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " +
              " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
    print(f"\n{args.workload}: {args.runs} runs, {args.seconds} s each")
    print(f"{'metric':34s} {'median':>14s} {'IQR/med':>9s} {'range/med':>10s}")
    for label, table in (("", norm), ("raw ", raw)):
        for name, values in table.items():
            med, iqr, rng = spread(values)
            print(f"{label + name:34s} {med:14.6g} {iqr:9.2%} {rng:10.2%}")
    print("failed/attempted:", sorted(shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
