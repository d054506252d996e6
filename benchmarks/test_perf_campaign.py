"""BENCH — campaign throughput: serial executor vs the warm worker pool.

Runs a Fig. 13-shaped campaign grid (two workloads, the paper's five fault
rates, clean references included) through the serial in-process executor
and through the warm persistent worker pool at several worker counts.  With
``PERF_RECORD=1`` it records the whole scaling curve ``{workers: speedup}``
in ``benchmarks/results/perf_campaign.json`` — only after the ceiling and
the floor have passed — so successive changes can track orchestration
overhead and scaling, not just a single point.

Correctness is asserted hard: the pooled store records must equal the
serial ones byte for byte (modulo the measured ``duration_seconds``) — the
campaign determinism contract.  Timing is asserted relative to what the
machine can actually deliver: with ``C`` available cores, ``w`` workers
can at best approach ``min(w, C)``x, so the floor scales with
``min(w, C)`` and degrades to "the warm pool must be near serial parity"
on a single-core box (where the old cold pool sat at 0.16x).

Set ``PERF_CAMPAIGN_SMOKE=1`` (the CI artifact step does) to shrink the
grid and the worker sweep for constrained runners.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from perf_results import record_results
from repro.eval.campaign import CampaignSpec, TechniqueSpec, run_campaign
from repro.eval.experiment import ExperimentConfig, ExperimentRunner
from repro.eval.sweep import PAPER_FAULT_RATES
from repro.hardware.enhancements import MitigationKind

SMOKE = os.environ.get("PERF_CAMPAIGN_SMOKE") == "1"
AVAILABLE_CPUS = os.cpu_count() or 1

WORKLOADS = ["mnist"] if SMOKE else ["mnist", "fashion-mnist"]
FAULT_RATES = list(PAPER_FAULT_RATES)[-2:] if SMOKE else list(PAPER_FAULT_RATES)
N_TRIALS = 1 if SMOKE else 2
N_TEST = 40 if SMOKE else 100
WORKER_COUNTS = [2] if SMOKE else [2, 4]


def _spec() -> CampaignSpec:
    return CampaignSpec.grid(
        name="perf-campaign",
        workloads=WORKLOADS,
        network_sizes=[48],
        fault_rates=FAULT_RATES,
        technique_kinds=[
            MitigationKind.NO_MITIGATION,
            MitigationKind.RE_EXECUTION,
            MitigationKind.BNP3,
        ],
        base=ExperimentConfig(
            n_train=200, n_test=N_TEST, timesteps=100, epochs=2,
            paper_network_size=400,
        ),
        paper_sizes={48: 400},
        n_trials=N_TRIALS,
        seed=2022,
        runner_seed=2022,
    )


def _store_cells(path: Path) -> list:
    records = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("type") != "cell":
            continue
        record["duration_seconds"] = 0.0
        records.append(record)
    records.sort(key=lambda record: record["cell_id"])
    return [json.dumps(record, sort_keys=True) for record in records]


def _speedup_ceiling(n_workers: int) -> float:
    """Highest physically plausible speedup for *n_workers* on this machine.

    A pool cannot beat ``min(workers, cores)`` — anything above that
    (beyond measurement margin) means the serial baseline itself was
    anomalous (e.g. a load spike during the serial run), and committing
    the curve would inflate every speedup.  Guarded before the results
    file is written.
    """
    return 1.25 * min(n_workers, AVAILABLE_CPUS)


def _speedup_floor(n_workers: int) -> float:
    """Lowest acceptable speedup for *n_workers* on this machine.

    A warm pool cannot beat the core count, so expect 60% of the ideal
    ``min(workers, cores)``x when extra cores exist; on a single core the
    bar is near-parity with serial — the warm pool's whole point is that
    its fixed costs (snapshot load once, zero-copy attach) no longer
    swamp execution the way the old cold pool's did (0.16x).
    """
    usable = min(n_workers, AVAILABLE_CPUS)
    if usable <= 1:
        # Oversubscribed workers on one core add context-switch noise on
        # top of orchestration; the floor only needs to catch cold-pool
        # pathologies (per-unit reload/re-encode), which sit far below.
        return 0.4
    return 0.6 * usable


def test_campaign_warm_pool_scaling(tmp_path):
    # Train the clean models once up front and share the runner's cache
    # with every timed run, so they measure cell execution and
    # orchestration, not model preparation.
    runner = ExperimentRunner(root_seed=_spec().runner_seed)
    for config in _spec().experiments:
        runner.prepare(config)

    start = time.perf_counter()
    serial = run_campaign(
        _spec(), store_path=tmp_path / "serial.jsonl", n_workers=1, runner=runner
    )
    serial_seconds = time.perf_counter() - start
    serial_records = _store_cells(tmp_path / "serial.jsonl")
    n_cells = serial.n_cells

    curve = {1: 1.0}
    pool_seconds = {}
    for n_workers in WORKER_COUNTS:
        store = tmp_path / f"pool{n_workers}.jsonl"
        start = time.perf_counter()
        run_campaign(_spec(), store_path=store, n_workers=n_workers, runner=runner)
        elapsed = time.perf_counter() - start
        pool_seconds[n_workers] = elapsed
        curve[n_workers] = serial_seconds / elapsed if elapsed > 0 else float("inf")

        # Correctness first: the executors must agree byte for byte.
        assert _store_cells(store) == serial_records, (
            f"pool({n_workers}) store records diverged from serial"
        )

    # Best-of-2 serial baseline: re-measure after the pool runs and keep
    # the faster time.  A transient load spike during the single serial
    # run would otherwise inflate the whole speedup curve (a 1-CPU box
    # once "measured" 2.5x this way).
    start = time.perf_counter()
    run_campaign(
        _spec(), store_path=tmp_path / "serial2.jsonl", n_workers=1, runner=runner
    )
    serial_seconds = min(serial_seconds, time.perf_counter() - start)
    for n_workers in WORKER_COUNTS:
        curve[n_workers] = serial_seconds / pool_seconds[n_workers]

    print()
    print(
        f"BENCH perf_campaign: {n_cells} cells on {AVAILABLE_CPUS} cpu(s), "
        f"serial {serial_seconds:.3f}s, scaling "
        + ", ".join(f"{w}w={curve[w]:.2f}x" for w in WORKER_COUNTS)
    )

    # Both gates pass before the curve can become the recorded baseline:
    # physical sanity first, then the scaling floor.
    for n_workers in WORKER_COUNTS:
        ceiling = _speedup_ceiling(n_workers)
        assert curve[n_workers] <= ceiling, (
            f"pool({n_workers}) 'speedup' {curve[n_workers]:.2f}x exceeds the "
            f"physical ceiling {ceiling:.2f}x on {AVAILABLE_CPUS} cpu(s) — "
            f"the serial baseline ({serial_seconds:.2f}s) is anomalous; "
            f"not committing an inflated curve"
        )
        floor = _speedup_floor(n_workers)
        assert curve[n_workers] >= floor, (
            f"warm pool at {n_workers} workers reached {curve[n_workers]:.2f}x "
            f"(serial {serial_seconds:.2f}s, pool {pool_seconds[n_workers]:.2f}s) "
            f"on {AVAILABLE_CPUS} cpu(s); expected at least {floor:.2f}x"
        )

    summary = {
        "n_cells": n_cells,
        "workloads": WORKLOADS,
        "fault_rates": FAULT_RATES,
        "n_trials": N_TRIALS,
        "available_cpus": AVAILABLE_CPUS,
        "smoke": SMOKE,
        "serial_seconds": round(serial_seconds, 3),
        "serial_ms_per_cell": round(1000.0 * serial_seconds / n_cells, 1),
        "pool_seconds": {
            str(workers): round(seconds, 3)
            for workers, seconds in pool_seconds.items()
        },
        "pool_speedup": {
            str(workers): round(speedup, 2) for workers, speedup in curve.items()
        },
    }
    record_results("perf_campaign.json", summary)
