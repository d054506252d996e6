"""Steadiness check: repeat the benchmark and report each metric's spread.

Usage, from the root of a checkout::

    python3 snnbench/steady.py --runs 10 --first-seed 100

Runs ``run.py`` (one process per run, one at a time) for every workload
with seeds ``first-seed .. first-seed + runs - 1`` and prints, for each
(workload, end-to-end metric), the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread
``(q3 - q1) / median`` and that spread as a share of the metric's bound in
``BENCHMARK.json``.  The bounds are set from this output: a spread must stay
below its bound, and a steady benchmark keeps it below a third of it.
Runs that fail or report ``correct: false`` are listed and left out.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in its own process; returns its result object."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {completed.returncode}\n"
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    names = [item["name"] for item in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()

    bounds = {item["name"]: item["bound"] for item in bench["end_to_end"]}
    results: Dict[str, List[dict]] = {}
    for workload in names:
        results[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.perf_counter()
            try:
                result = run_once(workload, seed, bench["run_seconds"])
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
                print(f"FAILED {error}", flush=True)
                continue
            result["seed"] = seed
            result["run_seconds"] = time.perf_counter() - started
            results[workload].append(result)
            status = "ok" if result["correct"] and not result["failed"] else "BAD"
            print(
                f"{workload:14s} seed {seed:5d} {status} "
                f"{result['run_seconds']:6.1f}s "
                + " ".join(
                    f"{name}={metric['value']:.5g}"
                    for name, metric in result["metrics"].items()
                ),
                flush=True,
            )

    print()
    print(
        f"{'workload':14s} {'metric':40s} {'median':>12s} {'q1':>12s} "
        f"{'q3':>12s} {'spread':>8s} {'bound':>6s} {'/bound':>7s}"
    )
    for workload, runs in results.items():
        good = [r for r in runs if r["correct"] and not r["failed"]]
        if len(good) < 2:
            print(f"{workload:14s} fewer than two good runs")
            continue
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in good if name in r["metrics"]]
            if len(values) < 2:
                continue
            median, q1, q3, spread = quartile_spread(values)
            print(
                f"{workload:14s} {name:40s} {median:12.5g} {q1:12.5g} "
                f"{q3:12.5g} {spread:8.4f} {bound:>6} {spread / bound:7.2f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
