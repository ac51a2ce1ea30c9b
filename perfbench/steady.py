#!/usr/bin/env python3
"""Steadiness check: run every workload many times and print the spreads.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --first-seed 1

Runs ``run.py`` once per seed and workload, alternating the workloads
(and which one goes first) so slow drift of the host lands on both.  For
each end-to-end metric it prints the median, the first and third
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
spread: the distance between the quartiles as a share of the median.
Each run gets ``--seconds`` from ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("live_wide_lsm", "catchup_hot_vm")
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(RUN_SECONDS), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=HERE.parent, capture_output=True, text=True, timeout=900
    )
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict[str, dict[str, float]]:
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        table[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "unit": results[0]["metrics"][name]["unit"],
        }
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    results: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for index in range(args.runs):
        seed = args.first_seed + index
        order = WORKLOADS if index % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            result = run_once(workload, seed)
            results[workload].append(result)
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}",
                flush=True,
            )
    for workload in WORKLOADS:
        runs = results[workload]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{workload}: {len(runs)} runs, failed shares {shares}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, row in summarise(runs).items():
            print(
                f"  {name:28} {row['median']:12.6g} {row['q1']:12.6g} "
                f"{row['q3']:12.6g} {row['spread']:8.2%}  {row['unit']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
