"""The library's layers as the traced run sees them, and their metrics.

:func:`install` wraps the public functions and methods behind each layer
at their import sites (see :mod:`tracing`); :func:`metrics` turns what a
traced run recorded into the per-layer metrics of ``BENCHMARK.json``.

:data:`PER_LAYER` is the one list of those metrics: name, unit, better
direction, and the end-to-end metric each should move, on which
workloads (``BENCHMARK.json`` has no field for the last column, so it
lives here and in ``README.md``).  Times are self seconds per measured
pass on the campaign workloads and per 1000 requests on ``serve-3mode``;
the two set-up layers are per set-up.  A layer that does not run on a
workload reports 0.
"""

from __future__ import annotations

import multiprocessing.process
import multiprocessing.queues
import statistics
import threading
import tracemalloc
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from tracing import ROOT, Tracer

FIG13 = "fig13-serial fig13-pool2"

#: (name, unit, better, moves which end-to-end metric on which workloads)
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("data.prepare_datasets_s", "s", "lower", "setup_s: all"),
    ("snn.training.train_s", "s", "lower", "setup_s: all"),
    ("snn.encoding.encode_s", "s", "lower",
     f"images_per_s: {FIG13} serve-3mode"),
    ("faults.generate_s", "s", "lower", f"images_per_s: {FIG13}"),
    ("core.mitigation.plan_rows_s", "s", "lower", f"images_per_s: {FIG13}"),
    ("core.mitigation.combine_row_results_s", "s", "lower",
     f"images_per_s: {FIG13}"),
    ("core.mitigation.evaluate_techniques_mapped_s", "s", "lower",
     f"images_per_s: {FIG13}"),
    ("eval.campaign.prepare_unit_inputs_s", "s", "lower",
     f"images_per_s: {FIG13}"),
    ("eval.store.append_cell_s", "s", "lower", f"images_per_s: {FIG13}"),
    ("snn.inference.evaluate_rows_s", "s", "lower",
     f"images_per_s: {FIG13}"),
    ("snn.engine.map_parallel.self_s", "s", "lower",
     "images_per_s, peak_rss_mb: fig13-serial"),
    ("snn.engine.batched.self_s", "s", "lower",
     "latency_ms_p50, images_per_s: serve-3mode"),
    ("snn.kernels.register_gemm_s", "s", "lower",
     "images_per_s: fig13-serial serve-3mode"),
    ("snn.kernels.exact_scale_s", "s", "lower",
     "images_per_s: fig13-serial serve-3mode"),
    ("snn.kernels.bounding_correction_s", "s", "lower",
     "images_per_s: fig13-serial"),
    ("snn.kernels.advance_s", "s", "lower",
     "images_per_s: fig13-serial serve-3mode"),
    ("eval.pool.self_s", "s", "lower", "images_per_s: fig13-pool2"),
    ("eval.pool.startup_s", "s", "lower",
     "images_per_s: fig13-pool2 (0 on serial)"),
    ("eval.pool.shm_publish_s", "s", "lower", "images_per_s: fig13-pool2"),
    ("eval.pool.result_wait_s", "s", "lower",
     "images_per_s: fig13-pool2 (0 on serial)"),
    ("eval.pool.shutdown_s", "s", "lower", "images_per_s: fig13-pool2"),
    ("serve.modes.classify_batch_s", "s", "lower",
     "latency_ms_p50, images_per_s: serve-3mode"),
    ("serve.scheduler.queue_wait_ms_p50", "ms", "lower",
     "latency_ms_p50, images_per_s: serve-3mode"),
    ("snn.encoding.density", "ratio", "lower",
     "exact; about 0.016 for Poisson encoding"),
    ("snn.kernels.gemm_macs", "count", "lower",
     "exact; gemm_macs / event_macs is the dense-GEMM waste"),
    ("snn.kernels.event_macs", "count", "lower", "exact"),
    ("snn.kernels.neuron_steps", "count", "lower", "exact"),
    ("snn.kernels.advance_ns_per_neuron_step", "ns", "lower",
     "images_per_s: fig13-serial serve-3mode (fig13-pool2 runs them in workers)"),
    ("snn.engine.currents_bytes_max", "bytes", "lower",
     "exact; peak bytes one engine run_encoded call allocates (the currents "
     "tensor and its layout copies dominate); peak_rss_mb: fig13-serial"),
    ("faults.n_faults", "count", "lower", "exact"),
    ("eval.pool.units", "count", "lower", "exact; fig13-pool2"),
    ("eval.pool.shm_bytes_published", "bytes", "lower", "exact; fig13-pool2"),
    ("eval.pool.crashes", "count", "lower", "exact; fig13-pool2"),
    ("eval.pool.serial_retries", "count", "lower", "exact; fig13-pool2"),
    ("eval.pool.worker_utilization", "ratio", "higher",
     "images_per_s: fig13-pool2"),
    ("serve.scheduler.batch_size_mean", "count", "higher",
     "images_per_s: serve-3mode (timing-dependent)"),
    ("serve.scheduler.flushes_full", "count", "higher",
     "serve-3mode (timing-dependent)"),
    ("serve.scheduler.flushes_deadline", "count", "lower",
     "latency_ms_p50: serve-3mode (timing-dependent)"),
    ("serve.scheduler.flushes_idle", "count", "lower",
     "serve-3mode (timing-dependent)"),
    ("proc.cpu_per_wall", "ratio", "lower", "images_per_s: all"),
    ("trace.unattributed_frac", "ratio", "lower",
     "below 0.10 on the campaigns"),
    ("trace.overhead_frac", "ratio", "lower", "tracing cost"),
]

# ---------------------------------------------------------------------- #
# count hooks
# ---------------------------------------------------------------------- #
def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _gemm(tracer: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    spikes = np.asarray(_arg(args, kwargs, 0, "spikes"))
    codes = _arg(args, kwargs, 1, "codes")
    rows, inputs = spikes.shape
    outputs = codes.shape[1]
    tracer.count("gemm_macs", rows * inputs * outputs)
    tracer.count("event_macs", int(np.count_nonzero(spikes)) * outputs)


def _encoded(tracer: Tracer, args: tuple, kwargs: dict, raster: Any, ns: int) -> None:
    tracer.count("raster_events", int(np.count_nonzero(raster)))
    tracer.count("raster_cells", int(np.size(raster)))


def _advance(tracer: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    currents = _arg(args, kwargs, 0, "currents")
    tracer.count("neuron_steps", int(np.prod(currents.shape)))


class EnginePeakProbe:
    """Peak bytes an engine's ``run_encoded`` allocates, from ``tracemalloc``.

    numpy reports its array buffers to ``tracemalloc``, so the peak counts
    the currents tensor, its layout copies and every other temporary the
    call holds at once.  Only the first call of each input shape is traced
    (tracing slows every allocation), and only while no other engine call
    is in flight; engine calls that arrive meanwhile wait until it ends, so
    no other engine's arrays land in the peak.
    """

    def __init__(self) -> None:
        self._seen: set = set()
        self._active = 0
        self._probing = False
        self._changed = threading.Condition()

    def __call__(
        self, tracer: Tracer, call: Callable[[], Any], args: tuple, kwargs: dict
    ) -> Any:
        engine = args[0]
        rasters = _arg(args, kwargs, 1, "rasters")
        shapes = (
            np.shape(rasters)
            if isinstance(rasters, np.ndarray)
            else tuple(np.shape(raster) for raster in rasters)
        )
        key = (type(engine).__qualname__, getattr(engine, "n_unique_rows", 1), shapes)
        with self._changed:
            self._changed.wait_for(lambda: not self._probing)
            probe = key not in self._seen and self._active == 0
            if probe:
                self._seen.add(key)
                self._probing = True
                tracemalloc.start()
            self._active += 1
        try:
            if not probe:
                return call()
            try:
                result = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            tracer.maximum("engine_peak_bytes", peak)
            return result
        finally:
            with self._changed:
                self._active -= 1
                if probe:
                    self._probing = False
                self._changed.notify_all()


def _fault_map(tracer: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    tracer.count("n_faults", result.n_faults)


def _fault_maps(tracer: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    tracer.count("n_faults", sum(item.n_faults for item in result))


def _classified(tracer: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    end = tracer.clock()
    for seed in _arg(args, kwargs, 2, "seeds"):
        tracer.note(("batch", int(seed)), (end - ns, end))


def _submitted(tracer: Tracer, args: tuple, kwargs: dict, result: Any, ns: int) -> None:
    payload = _arg(args, kwargs, 1, "payload")
    tracer.note(("submit", int(payload[1])), tracer.clock() - ns)


# ---------------------------------------------------------------------- #
# installation
# ---------------------------------------------------------------------- #
def install(tracer: Tracer) -> None:
    """Wrap every layer of :data:`PER_LAYER` at all of its import sites."""
    # Import everything first: a module imported after installation would
    # bind the unwrapped originals.
    from repro.core import mitigation
    from repro.eval import campaign, experiment, pool, store
    from repro.faults.fault_map import FaultMapGenerator
    from repro.serve.modes import ServingSession
    from repro.serve.scheduler import MicroBatchScheduler
    from repro.snn import encoding, engine, inference, kernels, training
    from repro.utils import serialization

    function = tracer.install_function
    method = tracer.install_method
    function("data.prepare_datasets", experiment.prepare_datasets)
    method("snn.training.train", training.TrainingRunner, "train")
    for encoder in (encoding.PoissonEncoder, encoding.TTFSEncoder):
        method("snn.encoding.encode", encoder, "encode", _encoded)
        method("snn.encoding.encode", encoder, "encode_batch", _encoded)
    method("snn.encoding.encode", ServingSession, "encode", _encoded)
    method("faults.generate", FaultMapGenerator, "generate", _fault_map)
    method("faults.generate", FaultMapGenerator, "generate_many", _fault_maps)
    method("core.mitigation.plan_rows", mitigation.MitigationTechnique, "plan_rows")
    method(
        "core.mitigation.combine_row_results",
        mitigation.MitigationTechnique,
        "combine_row_results",
    )
    function(
        "core.mitigation.evaluate_techniques_mapped",
        mitigation.evaluate_techniques_mapped,
    )
    function("eval.campaign.prepare_unit_inputs", campaign.prepare_unit_inputs)
    method("eval.store.append_cell", store.ResultStore, "append_cell")
    function("snn.inference.evaluate_rows", inference.evaluate_rows)
    method("snn.engine.map_parallel", engine.MapParallelEngine, "__init__")
    peak = EnginePeakProbe()
    method(
        "snn.engine.map_parallel",
        engine.MapParallelEngine,
        "run_encoded",
        around=peak,
    )
    method(
        "snn.engine.batched", engine.BatchedInferenceEngine, "run_encoded", around=peak
    )
    function("snn.kernels.register_gemm", kernels.register_gemm, _gemm)
    function("snn.kernels.exact_scale", kernels.exact_scale)
    function(
        "snn.kernels.bounding_correction", kernels.bounding_correction_terms
    )
    function(
        "snn.kernels.bounding_correction", kernels.apply_bounding_correction
    )
    for advance in (
        kernels.lif_advance,
        kernels.cuba_advance,
        kernels.fixed_point_advance,
    ):
        function("snn.kernels.advance", advance, _advance)
    function("eval.pool", pool.execute_units_pooled)
    function("eval.pool.startup", serialization.reap_stale_segments)
    method("eval.pool.startup", multiprocessing.process.BaseProcess, "start")
    method("eval.pool.shutdown", multiprocessing.process.BaseProcess, "join")
    method(
        "eval.pool.shm_publish", serialization.SharedArrayPublisher, "publish"
    )
    method("eval.pool.result_wait", multiprocessing.queues.Queue, "get")
    method("serve.modes.classify_batch", ServingSession, "classify_batch", _classified)
    method(
        "serve.scheduler.submit", MicroBatchScheduler, "submit", _submitted
    )


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def request_timings(
    notes: Dict[Any, Any], requests: Sequence[Tuple[int, int, int]]
) -> List[Tuple[int, int, int]]:
    """Split served requests' latencies using the serving hooks' notes.

    *requests* holds ``(encoding seed, sent_ns, done_ns)`` per request of
    one round.  Returns ``(latency, classify, in_service)`` nanoseconds
    per request: ``classify`` is its micro-batch's ``classify_batch`` time
    and ``in_service`` runs from its scheduler ``submit`` to the end of
    that batch.  The rest of the latency (request resolution before the
    submit, the client's wake-up after the batch) is unattributed.
    """
    timings = []
    for seed, sent, done in requests:
        batch = notes.get(("batch", seed))
        submitted = notes.get(("submit", seed))
        if batch is None or submitted is None:
            continue
        start, end = batch
        timings.append((done - sent, end - start, end - submitted))
    return timings


def metrics(
    measured: Dict[str, Any],
    n_setups: int,
    per: float,
    wall_s: float,
    cpu_s: float,
    pool_stats: Sequence[Optional[Dict[str, Any]]] = (),
    scheduler_stats: Optional[Dict[str, Dict[str, Any]]] = None,
    timings: Sequence[Tuple[int, int, int]] = (),
) -> Dict[str, float]:
    """Per-layer metrics from a traced run.

    *measured* is the run's :meth:`Tracer.snapshot`, with the set-up work
    booked under the ``setup`` phase; set-up times are divided by
    *n_setups*, the rest by *per* (passes, or thousands of requests).
    *pool_stats* holds one ``CampaignResult.pool_stats`` per pass,
    *scheduler_stats* the service's per-scheduler statistics summed over
    the rounds and *timings* one :func:`request_timings` tuple per served
    request.
    """
    values: Dict[str, float] = {}
    pass_ns = measured["self_ns"]
    for name, unit, _, _ in PER_LAYER:
        if unit != "s":
            continue
        layer = name[: -len(".self_s")] if name.endswith(".self_s") else name[:-2]
        if name in ("data.prepare_datasets_s", "snn.training.train_s"):
            values[name] = pass_ns.get(f"setup:{layer}", 0) / 1e9 / max(n_setups, 1)
        else:
            values[name] = pass_ns.get(layer, 0) / 1e9 / per

    counts = measured["counts"]
    events = counts.get("raster_events", 0.0)
    cells = counts.get("raster_cells", 0.0)
    values["snn.encoding.density"] = events / cells if cells else 0.0
    values["snn.kernels.gemm_macs"] = counts.get("gemm_macs", 0.0) / per
    values["snn.kernels.event_macs"] = counts.get("event_macs", 0.0) / per
    steps = counts.get("neuron_steps", 0.0)
    values["snn.kernels.neuron_steps"] = steps / per
    values["snn.kernels.advance_ns_per_neuron_step"] = (
        pass_ns.get("snn.kernels.advance", 0) / steps if steps else 0.0
    )
    # Probes in the set-up phase count too: a shape is probed only once.
    values["snn.engine.currents_bytes_max"] = max(
        (
            value
            for key, value in measured["maxima"].items()
            if key.rpartition(":")[2] == "engine_peak_bytes"
        ),
        default=0.0,
    )
    values["faults.n_faults"] = counts.get("n_faults", 0.0) / per

    stats = [item for item in pool_stats if item]
    values["eval.pool.units"] = (
        sum(sum(w["units"] for w in item["workers"]) for item in stats) / per
    )
    values["eval.pool.shm_bytes_published"] = (
        sum(item["shm_bytes_published"] for item in stats) / per
    )
    values["eval.pool.crashes"] = float(sum(item["crashes"] for item in stats))
    values["eval.pool.serial_retries"] = float(
        sum(item["serial_retries"] for item in stats)
    )
    utilizations = [w["utilization"] for item in stats for w in item["workers"]]
    values["eval.pool.worker_utilization"] = (
        statistics.fmean(utilizations) if utilizations else 0.0
    )

    schedulers = list((scheduler_stats or {}).values())
    batches = sum(s["n_batches"] for s in schedulers)
    values["serve.scheduler.batch_size_mean"] = (
        sum(s["completed"] for s in schedulers) / batches if batches else 0.0
    )
    for flush in ("full", "deadline", "idle"):
        values[f"serve.scheduler.flushes_{flush}"] = (
            sum(s[f"flush_{flush}"] for s in schedulers) / per
            if schedulers
            else 0.0
        )

    waits_ms = [(latency - classify) / 1e6 for latency, classify, _ in timings]
    values["serve.scheduler.queue_wait_ms_p50"] = (
        float(np.percentile(waits_ms, 50)) if waits_ms else 0.0
    )

    values["proc.cpu_per_wall"] = cpu_s / wall_s if wall_s > 0 else 0.0
    if timings:
        latency_ns = sum(latency for latency, _, _ in timings)
        values["trace.unattributed_frac"] = (
            sum(latency - served for latency, _, served in timings) / latency_ns
        )
    else:
        root = measured["root_ns"]
        values["trace.unattributed_frac"] = (
            pass_ns.get(ROOT, 0) / root if root else 0.0
        )
    values["trace.overhead_frac"] = (
        measured["overhead_ns"] / (wall_s * 1e9) if wall_s > 0 else 0.0
    )
    return {name: values[name] for name, _, _, _ in PER_LAYER}
