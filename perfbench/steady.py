#!/usr/bin/env python3
"""Steadiness mode: runs one workload of the benchmark several times, each
in a fresh process, and prints every metric's median, quartiles, IQR as a
share of the median, and (max - min) / median.

    python3 perfbench/steady.py --workload fig1_mix --runs 10 --seconds 10
    python3 perfbench/steady.py --workload wide_solver --trace 1 --same-seed

With --same-seed every run uses --seed-base, and metrics whose value repeats
exactly across the runs are marked `exact`: those are the counters a later
change can gate on. Without it, run i uses seed --seed-base + i, as a harness
varying the seed would. End-to-end metrics are compared with their bound
from BENCHMARK.json: `!` marks an IQR share at or above a third of the
bound, `!!` one at or above the bound itself.

Run from the repository root. Exits non-zero if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_command():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"run with seed {seed} failed its correctness checks")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    args = ap.parse_args()

    spec = bench_command()
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    units = {}
    failed = attempted = 0
    for i in range(args.runs):
        seed = args.seed_base if args.same_seed else args.seed_base + i
        result = run_once(spec["command"], args.workload, seed, seconds, args.trace)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {i + 1}/{args.runs} seed {seed} done", file=sys.stderr)

    print(f"# workload={args.workload} runs={args.runs} seconds={seconds} trace={args.trace} "
          f"same_seed={args.same_seed} attempted={attempted} failed={failed}")
    print(f"{'metric':34} {'unit':9} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'range/med':>9}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(vals) - min(vals)) / med if med else 0.0
        mark = ""
        if len(set(vals)) == 1:
            mark = "exact"
        if name in bounds and name != "setup_s":
            if iqr >= bounds[name]:
                mark += " !!"
            elif iqr >= bounds[name] / 3:
                mark += " !"
        print(f"{name:34} {units[name]:9} {med:14.6g} {q1:14.6g} {q3:14.6g} {iqr:8.4f} {rng:9.4f} {mark}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
