"""The workloads: set-up, measured phase and correctness checks.

Every input derives from ``--seed``: the campaign spec's cell seed and its
data/training seed, the service's fault-map and request seeds, and the
request schedule (image and per-request seed of every request).  The
library receives only those generated inputs.

``fig13-serial`` / ``fig13-pool2``
    The CLI's shipped ``fig13`` preset (mnist + fashion-mnist, N48/N72
    proxies, four paper fault rates plus clean, all five techniques: 20
    cells), run through ``run_campaign`` with a fresh result store per pass
    — serially, and on the warm pool with 2 workers, which spawns its
    workers and publishes the test sets on every pass as a CLI run does.
    The cell work is identical, so the difference between the two is the
    pool's orchestration, IPC and shared-memory cost.
``serve-3mode``
    An in-process ``SoftSNNService`` holding the Fig. 13 N48 model; two
    closed-loop clients (one per core) send single-image ``classify``
    requests cycling through the clean, faulty and protected modes, so the
    batched engine runs at batch 1-2 behind three warm schedulers.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import (
    TAIL_SAMPLES,
    records_digest,
    tail_percentile,
    values_digest,
)
from tracing import Tracer

#: A run repeats rounds of (fresh set-ups, measured pass) for ``--seconds``,
#: and at least this many, so the set-up samples are spread over the run
#: like the pass samples.
MIN_ROUNDS = 3
#: Fresh set-ups per round; the pass uses the last.  ``setup_s`` is the
#: median of all of them: a set-up is short and its time switches between
#: a fast and a slower state every few seconds, so it is sampled more
#: often than a pass.
SETUPS_PER_ROUND = 3
#: Requests per serving round: p99 of 1000 has ten samples beyond it.
WINDOW = 1000
#: The campaigns' tail percentile of cell latency.  A pass has only 20
#: cells, so it is taken over every cell of every pass, and a run makes
#: enough passes for ten samples to lie beyond it.
CAMPAIGN_TAIL = 90.0
SERVE_MODEL = "fig13-mnist-n48"
SERVE_MODES = ("clean", "faulty", "protected")
SERVE_CLIENTS = 2
CHECK_BATCH = 64


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def _peak_rss_mb(n_workers: int) -> float:
    """Peak RSS of this process plus *n_workers* times the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + n_workers * child) / 1024.0


def _fresh() -> None:
    """Drop what a previous set-up left in process-wide caches."""
    from repro.snn.kernels import clear_autotune_cache

    clear_autotune_cache()
    gc.collect()


def _span(tracer: Optional[Tracer]):
    return tracer.root() if tracer is not None else nullcontext()


def _phase(tracer: Optional[Tracer]):
    return tracer.phase("setup") if tracer is not None else nullcontext()


# ---------------------------------------------------------------------- #
# campaigns
# ---------------------------------------------------------------------- #
def fig13_spec(seed: int):
    """The CLI's ``fig13`` preset at *seed* (cell and data/training seed)."""
    from repro.campaign import build_parser, build_spec

    args = build_parser().parse_args(
        ["fig13", "--seed", str(seed), "--runner-seed", str(seed)]
    )
    return build_spec(args)


#: Campaign workloads and their worker counts; both run the Fig. 13 grid.
CAMPAIGN_WORKERS = {"fig13-serial": 1, "fig13-pool2": 2}


def _campaign_pass(spec, runner, n_workers: int, work: Path, index: int):
    """One campaign pass into a fresh store.

    Returns ``(seconds, records digest, {cell id: duration}, pool stats)``.
    """
    from repro.eval.campaign import run_campaign
    from repro.eval.store import ResultStore

    store_path = work / f"pass-{index}.jsonl"
    models = work / f"models-{index}"
    try:
        started = time.perf_counter()
        result = run_campaign(
            spec,
            store_path=store_path,
            n_workers=n_workers,
            runner=runner,
            workdir=models,
        )
        seconds = time.perf_counter() - started
        records = ResultStore(store_path).cell_records()
    finally:
        store_path.unlink(missing_ok=True)
        shutil.rmtree(models, ignore_errors=True)
    if result.n_executed != len(spec.expand()) or len(records) != result.n_executed:
        raise RuntimeError(
            f"pass executed {result.n_executed} cells, stored {len(records)}"
        )
    digest = records_digest(record.to_dict() for record in records.values())
    durations = {key: record.duration_seconds for key, record in records.items()}
    return seconds, digest, durations, result.pool_stats


def _setup_campaign(spec, tracer: Optional[Tracer]):
    """One fresh set-up: generate every experiment's data, train its model."""
    from repro.eval.experiment import ExperimentRunner

    with _phase(tracer):
        runner = ExperimentRunner(root_seed=spec.runner_seed)
        for config in spec.experiments:
            runner.prepare(config)
    return runner


def run_campaign_workload(
    name: str,
    seed: int,
    seconds: float,
    work: Path,
    pins: Dict[str, Dict[str, str]],
    tracer: Optional[Tracer],
) -> Outcome:
    """Rounds of (fresh set-ups, measured pass) for *seconds*."""
    n_workers = CAMPAIGN_WORKERS[name]
    spec = fig13_spec(seed)
    cells = spec.expand()
    # Every cell classifies its experiment's test set once per technique.
    images_per_pass = sum(
        len(spec.techniques) * spec.experiment_by_key(cell.experiment_key).n_test
        for cell in cells
    )
    outcome = Outcome()
    setup_times: List[float] = []
    pass_seconds: List[float] = []
    durations_ms: Dict[str, List[float]] = {}
    digests: List[str] = []
    pool_stats: List[Optional[Dict[str, Any]]] = []
    runner = None
    cpu_before = _cpu_seconds()
    began = time.perf_counter()
    min_passes = MIN_ROUNDS
    while tail_percentile(min_passes * len(cells)) < CAMPAIGN_TAIL:
        min_passes += 1
    while outcome.attempted < min_passes or time.perf_counter() < began + seconds:
        for _ in range(SETUPS_PER_ROUND):
            runner = None  # so that _fresh() collects the previous set-up
            _fresh()
            started = time.perf_counter()
            runner = _setup_campaign(spec, tracer)
            setup_times.append(time.perf_counter() - started)

        outcome.attempted += 1
        try:
            with _span(tracer):
                elapsed, digest, durations, stats = _campaign_pass(
                    spec, runner, n_workers, work, outcome.attempted
                )
        except Exception:  # noqa: BLE001 - a failed pass is a failed operation
            outcome.failed += 1
            outcome.notes.append(traceback.format_exc())
            continue
        if digests and digest != digests[0]:
            outcome.failed += 1
            outcome.notes.append(f"pass {outcome.attempted} digest {digest}")
            continue
        digests.append(digest)
        pass_seconds.append(elapsed)
        for key, value in durations.items():
            durations_ms.setdefault(key, []).append(1000.0 * value)
        pool_stats.append(stats)
    wall = time.perf_counter() - began
    cpu = _cpu_seconds() - cpu_before
    trace = tracer.snapshot() if tracer is not None else None

    outcome.check(
        "every pass's store records hash alike",
        bool(digests) and len(set(digests)) == 1,
        f"{len(digests)} passes, digest {digests[0] if digests else '-'}",
    )
    matches = []
    pinned = pins.get("fig13", {}).get(str(seed))
    if pinned is not None:
        matches.append(bool(digests) and digests[0] == pinned)
        outcome.check(f"digest pinned for seed {seed}", matches[-1])
    if n_workers > 1:
        # The pool must reproduce the serial records exactly (untimed).
        try:
            serial = _campaign_pass(spec, runner, 1, work, 0)[1]
        except Exception:  # noqa: BLE001 - reported as a failed check
            outcome.notes.append(traceback.format_exc())
            serial = None
        matches.append(bool(digests) and serial == digests[0])
        outcome.check("pool records equal serial records", matches[-1])
    if not all(matches):
        outcome.failed += len(digests)  # every pass produced these records

    cell_ms = [v for values in durations_ms.values() for v in values]
    if len(cell_ms) > TAIL_SAMPLES and tail_percentile(len(cell_ms)) >= CAMPAIGN_TAIL:
        # Totals and pooled percentiles over all passes, not medians of
        # per-pass figures: on a shared 2-vCPU virtual machine, CPU speed
        # drifts by up to 50% in phases of tens of seconds, and a total
        # blends a run's fast and slow phases where a median snaps to one.
        images_per_s = images_per_pass * len(pass_seconds) / sum(pass_seconds)
        outcome.metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": _peak_rss_mb(n_workers),
            "images_per_s": images_per_s,
            "latency_ms_p50": float(np.percentile(cell_ms, 50)),
            "latency_ms_tail": float(np.percentile(cell_ms, CAMPAIGN_TAIL)),
        }
        outcome.notes.append(
            f"{len(pass_seconds)} rounds of {SETUPS_PER_ROUND} set-ups + pass; "
            f"{len(cells)} cells and {images_per_pass} images per pass; cells_per_s "
            f"{images_per_s * len(cells) / images_per_pass:.4g}; latency p50 "
            f"and tail (p{CAMPAIGN_TAIL:g}) over all {len(cell_ms)} cells of "
            "every pass"
        )
        outcome.notes.append(
            "pass images/s: "
            + " ".join(f"{images_per_pass / value:.0f}" for value in pass_seconds)
        )
        outcome.notes.append(
            "set-up s: " + " ".join(f"{value:.3f}" for value in setup_times)
        )
    if tracer is not None:
        import layers

        outcome.layers = layers.metrics(
            trace,
            n_setups=len(setup_times),
            per=max(len(pass_seconds), 1),
            wall_s=wall,
            cpu_s=cpu,
            pool_stats=pool_stats,
        )
    return outcome


# ---------------------------------------------------------------------- #
# serving
# ---------------------------------------------------------------------- #
def serve_schedule(seed: int, n_images: int) -> List[Tuple[str, int, int]]:
    """The ``WINDOW`` requests every serving round sends, in order.

    Request ``k`` is ``(mode, test image, encoding seed)``: consecutive
    pairs share a mode (so the two clients' in-flight requests can share a
    micro-batch) and the pairs cycle through clean, faulty and protected;
    the images come from a generator seeded with *seed*.
    """
    rng = np.random.default_rng(seed)
    return [
        (
            SERVE_MODES[(index // SERVE_CLIENTS) % len(SERVE_MODES)],
            int(rng.integers(n_images)),
            (seed << 32) | index,
        )
        for index in range(WINDOW)
    ]


def _serve_round(service, images, schedule, outcome: Outcome):
    """Closed-loop clients send the schedule once; returns one tuple per request.

    Each client takes the next unsent request, waits for its reply, and
    repeats.  A tuple is ``(index, prediction, sent_ns, done_ns)``.
    """
    served: List[Tuple[int, int, int, int]] = []
    lock = threading.Lock()
    pending = iter(range(len(schedule)))

    def client_loop() -> None:
        while True:
            with lock:
                index = next(pending, None)
            if index is None:
                return
            mode, image, seed = schedule[index]
            sent = time.perf_counter_ns()
            try:
                result = service.classify(
                    images[image], model=SERVE_MODEL, mode=mode, seeds=[seed]
                )
            except Exception:  # noqa: BLE001 - a failed request is a failed operation
                with lock:
                    outcome.failed += 1
                    outcome.notes.append(traceback.format_exc())
                continue
            done = time.perf_counter_ns()
            with lock:
                served.append((index, int(result.predictions[0]), sent, done))

    threads = [
        threading.Thread(target=client_loop, name=f"client-{client}")
        for client in range(SERVE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("serving clients did not finish")
    outcome.attempted += len(schedule)
    return served


def _direct_predictions(model, service, items: List[Tuple[str, Any, int]]) -> List[int]:
    """Classify ``(mode, image, seed)`` items directly on fresh sessions."""
    from repro.serve.modes import build_session

    predictions: List[int] = [-1] * len(items)
    for mode in SERVE_MODES:
        positions = [i for i, item in enumerate(items) if item[0] == mode]
        if not positions:
            continue
        session = build_session(model, service.resolve_mode(mode))
        for start in range(0, len(positions), CHECK_BATCH):
            chunk = positions[start : start + CHECK_BATCH]
            out, _ = session.classify_batch(
                [items[i][1] for i in chunk], [items[i][2] for i in chunk]
            )
            for i, value in zip(chunk, out):
                predictions[i] = int(value)
    return predictions


def _scheduler_totals(service) -> Dict[str, Dict[str, int]]:
    keys = ("completed", "n_batches", "flush_full", "flush_deadline", "flush_idle")
    return {
        name: {key: stats[key] for key in keys}
        for name, stats in service.metrics_snapshot()["schedulers"].items()
    }


def _setup_service(config, seed: int, work: Path, tracer: Optional[Tracer]):
    """One fresh set-up: train the model, start a service, warm every mode."""
    from repro.eval.experiment import ExperimentRunner
    from repro.serve.service import ServiceConfig, SoftSNNService

    with _phase(tracer):
        prepared = ExperimentRunner(root_seed=seed).prepare(config)
        service = SoftSNNService(
            ServiceConfig(
                models_dir=work / "models",
                default_fault_seed=seed,
                request_seed_root=seed,
            )
        )
        service.register_model(prepared.model, SERVE_MODEL)
        images = np.asarray(prepared.test_set.images, dtype=np.float64).reshape(
            len(prepared.test_set), -1
        )
        for mode in SERVE_MODES:
            service.classify(images[0], model=SERVE_MODEL, mode=mode, seeds=[0])
    return prepared.model, service, images


def run_serve_workload(
    seed: int,
    seconds: float,
    work: Path,
    pins: Dict[str, Dict[str, str]],
    tracer: Optional[Tracer],
) -> Outcome:
    """Rounds of (fresh service set-ups, the ``WINDOW``-request schedule)."""
    config = fig13_spec(seed).experiments[0]
    schedule = serve_schedule(seed, config.n_test)
    outcome = Outcome()
    setup_times: List[float] = []
    round_seconds: List[float] = []
    latencies: List[float] = []
    totals: Dict[str, Dict[str, int]] = {}
    timings: List[Tuple[int, int, int]] = []
    served_rounds: List[List[Tuple[int, int, int, int]]] = []
    cpu_before = _cpu_seconds()
    began = time.perf_counter()
    while len(served_rounds) < MIN_ROUNDS or time.perf_counter() < began + seconds:
        for index in range(SETUPS_PER_ROUND):
            _fresh()
            started = time.perf_counter()
            model, service, images = _setup_service(config, seed, work, tracer)
            setup_times.append(time.perf_counter() - started)
            if index < SETUPS_PER_ROUND - 1:
                service.close()
                shutil.rmtree(work / "models", ignore_errors=True)
        try:
            before = _scheduler_totals(service)
            round_start = time.perf_counter_ns()
            served = _serve_round(service, images, schedule, outcome)
            after = _scheduler_totals(service)
        finally:
            service.close()
            shutil.rmtree(work / "models", ignore_errors=True)
        for name, stats in after.items():
            total = totals.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                total[key] += value - before.get(name, {}).get(key, 0)
        if tracer is not None:
            import layers

            timings += layers.request_timings(
                tracer.pop_notes(),
                [(schedule[i][2], sent, done) for i, _, sent, done in served],
            )
        served_rounds.append(served)
        if served:
            round_seconds.append((max(s[3] for s in served) - round_start) / 1e9)
        latencies += [(done - sent) / 1e6 for _, _, sent, done in served]
    wall = time.perf_counter() - began
    cpu = _cpu_seconds() - cpu_before
    trace = tracer.snapshot() if tracer is not None else None

    # Every served prediction must equal direct classification (untimed);
    # every round served the same schedule, so one direct pass covers all.
    direct = _direct_predictions(
        model, service, [(mode, images[image], s) for mode, image, s in schedule]
    )
    mismatches = sum(
        prediction != direct[index]
        for served in served_rounds
        for index, prediction, _, _ in served
    )
    outcome.failed += mismatches
    outcome.check(
        "served predictions equal direct classify_batch",
        mismatches == 0,
        f"{len(served_rounds)} rounds of {WINDOW} requests, {mismatches} mismatches",
    )
    digest = values_digest(direct)
    pinned = pins.get("serve-3mode", {}).get(str(seed))
    if pinned is not None:
        outcome.check(f"digest pinned for seed {seed}", digest == pinned)
    outcome.notes.append(f"direct predictions digest {digest}")

    n_served = len(latencies)
    # p99 is taken per round, where each of the 1000 requests leaves ten
    # samples beyond it, and the tail is the median over the rounds: a
    # pooled p99 would come from whichever round the host slowed most.
    round_p99 = [
        float(np.percentile([(done - sent) / 1e6 for _, _, sent, done in served], 99))
        for served in served_rounds
        if len(served) > TAIL_SAMPLES and tail_percentile(len(served)) >= 99.0
    ]
    if round_p99:
        # Totals and the pooled p50 over every round (see the campaign
        # workloads for why not medians of per-round figures).
        outcome.metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": _peak_rss_mb(0),
            "images_per_s": n_served / sum(round_seconds),
            "latency_ms_p50": float(np.percentile(latencies, 50)),
            "latency_ms_tail": statistics.median(round_p99),
        }
    outcome.notes.append(
        f"{len(served_rounds)} rounds of {SETUPS_PER_ROUND} set-ups + {WINDOW} "
        f"requests; latency p50 over all {n_served} requests, tail = median "
        "of the rounds' p99"
    )
    outcome.notes.append("round p99 ms: " + " ".join(f"{v:.2f}" for v in round_p99))
    outcome.notes.append(
        "round requests/s: "
        + " ".join(f"{len(r) / t:.1f}" for r, t in zip(served_rounds, round_seconds))
    )
    outcome.notes.append("set-up s: " + " ".join(f"{v:.3f}" for v in setup_times))
    if tracer is not None:
        import layers

        outcome.layers = layers.metrics(
            trace,
            n_setups=len(setup_times),
            per=len(served_rounds) * WINDOW / 1000.0,
            wall_s=wall,
            cpu_s=cpu,
            scheduler_stats=totals,
            timings=timings,
        )
    return outcome
