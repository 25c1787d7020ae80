#!/usr/bin/env python3
"""Runs one workload of the stird benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the driver (and the
stird library it links, from src/) with CMake into $CARGO_TARGET_DIR
(default .bench_build); later runs reuse that build. Every metric is
printed to stderr with its unit; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end set, with --trace 1
its per_layer set (a layer the workload does not exercise reads 0).

Exits 1 when a correctness check failed or the driver could not be built
or run; no result line is printed then unless the driver itself ran.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_root):
    """Configures and builds the driver (incrementally); returns its path."""
    build_dir = build_root / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(build_dir), "--target",
              "stird_perfbench", "-j", jobs]]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "stird_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    if not build_root.is_absolute():
        build_root = pathlib.Path.cwd() / build_root
    driver = build(build_root)

    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", str(build_root / "work")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed no result (exit code {done.returncode})")
    raw = json.loads(lines[-1])

    measured = raw["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        fail(f"driver reports metrics BENCHMARK.json does not declare: "
             f"{', '.join(unknown)}")
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in measured and not args.trace:
            fail(f"driver did not measure end-to-end metric {name}")
        value = measured.get(name, 0)
        metrics[name] = {"value": value, "unit": metric["unit"]}
        print(f"{name:40s} {value:>18.6f} {metric['unit']}", file=sys.stderr)
    print(f"{'attempted':40s} {raw['attempted']:>18d}\n"
          f"{'failed':40s} {raw['failed']:>18d}", file=sys.stderr)

    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    sys.exit(0 if done.returncode == 0 and raw["correct"] else 1)


if __name__ == "__main__":
    main()
