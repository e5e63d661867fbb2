#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs every declared workload ten times with consecutive seeds through
the command in BENCHMARK.json, from the repository root, and prints for
every end-to-end metric the median, the quartiles and the spread
(Q3 - Q1) / median, as statistics.quantiles(values, n=4) gives them,
next to a third of the metric's bound.

    python3 perfbench/steadiness.py [--first-seed 1] [--save set.json]
    python3 perfbench/steadiness.py --compare first.json second.json

--compare reads two saved sets and reports, per workload and metric,
how far the second median moved from the first against the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def load_declaration():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(decl, workload, seed):
    cmd = decl["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(decl["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(decl, sets):
    worst = {}
    for workload, runs in sets.items():
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<16} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound/3':>8}")
        for metric in decl["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            flag = "" if spread <= metric["bound"] / 3 else "  <-- too wide"
            print(f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {metric['bound'] / 3:>8.4f}{flag}")
            worst[(workload, name)] = spread
    return worst


def compare(decl, first, second):
    print(f"  {'workload':<11} {'metric':<16} {'first':>12} {'second':>12} {'worse by':>9} {'bound':>6}")
    ok = True
    for workload in first:
        for metric in decl["end_to_end"]:
            name = metric["name"]
            a = statistics.median(r[name] for r in first[workload])
            b = statistics.median(r[name] for r in second[workload])
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            flag = "" if worse <= metric["bound"] else "  <-- beyond bound"
            ok = ok and not flag
            print(f"  {workload:<11} {name:<16} {a:>12.6g} {b:>12.6g} {worse:>9.4f} "
                  f"{metric['bound']:>6}{flag}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    decl = load_declaration()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        sys.exit(0 if compare(decl, first, second) else 1)
    sets = {}
    for workload in (w["name"] for w in decl["workloads"]):
        sets[workload] = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            sets[workload].append(run_once(decl, workload, seed))
            print(f"{workload} seed {seed}: {sets[workload][-1]}", flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(sets, indent=1) + "\n")
    summarize(decl, sets)


if __name__ == "__main__":
    main()
