#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/stability.py [--runs 10] [--sets 2] [--workload W ...]
                                   [--out FILE]

Runs perfbench/run.py --trace 0 RUNS times per workload and set, each run
with another seed (seeds are 1..RUNS in the first set, RUNS+1.. in the
second, and so on). For every end-to-end metric it reports each set's
median and quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, and, from the second set on, how far the set's median
moved from the first set's, as a share of the first. It checks both
against BENCHMARK.json's bounds: the spread of every metric except
setup_s must stay within its bound, and no median may be worse than the
first set's by more than the bound. Writes the whole record as JSON to
FILE (default: stdout only) and exits 1 when a check fails.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds):
    print(f"{workload} seed {seed} ...", file=sys.stderr, flush=True)
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "q1": q1, "median": med, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    record = {"run_seconds": spec["run_seconds"], "runs": args.runs,
              "workloads": {}}
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = [run_once(workload, s * args.runs + i + 1,
                             spec["run_seconds"])
                    for i in range(args.runs)]
            sets.append({m["name"]: summarize([r[m["name"]] for r in runs])
                         for m in metrics})
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = sets[0][name]["median"]
            for i, measured in enumerate(sets):
                summary = measured[name]
                shift = (summary["median"] - first) / first
                if m["better"] == "higher":
                    shift = -shift
                summary["median_shift"] = shift
                spread_ok = name == "setup_s" or summary["spread"] <= bound
                shift_ok = shift <= bound
                ok = ok and spread_ok and shift_ok
                print(f"{workload:14s} set {i + 1} {name:12s} "
                      f"median {summary['median']:.6g} "
                      f"q1 {summary['q1']:.6g} q3 {summary['q3']:.6g} "
                      f"spread {summary['spread']:.3f} "
                      f"shift {shift:+.3f} bound {bound}"
                      f"{'' if spread_ok and shift_ok else '  FAIL'}",
                      flush=True)
        record["workloads"][workload] = sets
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
