"""Tests of the benchmark's own logic.

Run from the root of a checkout::

    python3 -m pytest snnbench -q
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from common import records_digest, tail_percentile  # noqa: E402
from tracing import ROOT as ROOT_LAYER  # noqa: E402
from tracing import Tracer  # noqa: E402


class FakeClock:
    """A clock that moves only when the code under test "works"."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def work(self, ns: int) -> None:
        self.now += ns


@pytest.fixture
def fake_module():
    """A throwaway ``fakepkg.mod`` module registered in ``sys.modules``."""
    module = types.ModuleType("fakepkg.mod")
    sys.modules["fakepkg.mod"] = module
    yield module
    del sys.modules["fakepkg.mod"]


# ---------------------------------------------------------------------- #
# span self-time folding
# ---------------------------------------------------------------------- #
def test_self_time_folds_children_out_of_parents(fake_module):
    clock = FakeClock()
    tracer = Tracer(module_prefix="fakepkg", clock=clock)

    def inner():
        clock.work(30)

    def outer():
        clock.work(10)
        fake_module.inner()
        clock.work(5)

    fake_module.inner, fake_module.outer = inner, outer
    tracer.install_function("b", inner)
    tracer.install_function("a", outer)
    with tracer.root():
        clock.work(7)
        fake_module.outer()
    assert tracer.self_ns == {"a": 15, "b": 30, ROOT_LAYER: 7}
    assert tracer.root_ns == 52
    assert sum(tracer.self_ns.values()) == tracer.root_ns


def test_nested_calls_into_the_same_layer_count_once(fake_module):
    clock = FakeClock()
    tracer = Tracer(module_prefix="fakepkg", clock=clock)
    hooks = []

    def encode_one():
        clock.work(20)
        return 1

    def encode_many():
        clock.work(10)
        return fake_module.encode_one() + fake_module.encode_one()

    fake_module.encode_one, fake_module.encode_many = encode_one, encode_many
    hook = lambda tr, args, kwargs, result, ns: hooks.append(result)  # noqa: E731
    tracer.install_function("enc", encode_one, hook)
    tracer.install_function("enc", encode_many, hook)
    with tracer.root():
        assert fake_module.encode_many() == 2
    assert tracer.self_ns["enc"] == 50
    assert tracer.calls["enc"] == 1
    assert hooks == [2]  # the inner calls ran no count hook
    assert tracer.self_ns[ROOT_LAYER] == 0


def test_reentry_through_another_layer_is_not_double_counted(fake_module):
    clock = FakeClock()
    tracer = Tracer(module_prefix="fakepkg", clock=clock)

    def leaf():
        clock.work(4)

    def middle():
        clock.work(3)
        fake_module.leaf()

    def top():
        clock.work(2)
        fake_module.middle()

    fake_module.leaf, fake_module.middle, fake_module.top = leaf, middle, top
    tracer.install_function("a", top)
    tracer.install_function("b", middle)
    tracer.install_function("a", leaf)
    with tracer.root():
        fake_module.top()
    assert tracer.self_ns["a"] == 6
    assert tracer.self_ns["b"] == 3
    assert tracer.calls["a"] == 2


def test_raising_child_is_still_folded_out_of_its_parent(fake_module):
    clock = FakeClock()
    tracer = Tracer(module_prefix="fakepkg", clock=clock)

    def child():
        clock.work(8)
        raise KeyError("empty")

    def parent():
        clock.work(1)
        try:
            fake_module.child()
        except KeyError:
            pass

    fake_module.child, fake_module.parent = child, parent
    tracer.install_function("child", child)
    tracer.install_function("parent", parent)
    with tracer.root():
        fake_module.parent()
    assert tracer.self_ns == {"child": 8, "parent": 1, ROOT_LAYER: 0}


# ---------------------------------------------------------------------- #
# the ">= 10 samples beyond" percentile rule
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("n", [11, 12, 50, 180, 999, 1000, 1001, 4321])
def test_tail_percentile_leaves_exactly_ten_samples_beyond(n):
    values = [float(i) for i in range(n)]
    q = tail_percentile(n)
    cut = np.percentile(values, q)
    assert sum(value > cut for value in values) == 10


def test_tail_percentile_is_p99_for_a_thousand_samples_and_needs_eleven():
    assert tail_percentile(1000) == pytest.approx(99.0)
    with pytest.raises(ValueError):
        tail_percentile(10)


# ---------------------------------------------------------------------- #
# digest stability
# ---------------------------------------------------------------------- #
def test_digest_ignores_order_and_duration_only():
    records = [
        {"cell_id": "b", "accuracies": {"bnp3": 80.0}, "duration_seconds": 1.5},
        {"cell_id": "a", "accuracies": {"bnp3": 75.0}, "duration_seconds": 0.2},
    ]
    shuffled = [dict(records[1], duration_seconds=9.0), dict(records[0])]
    assert records_digest(records) == records_digest(shuffled)
    changed = [dict(records[0]), dict(records[1], accuracies={"bnp3": 75.5})]
    assert records_digest(changed) != records_digest(records)


def test_campaign_digest_is_stable_across_runs_and_executors(tmp_path):
    from repro.campaign import build_parser, build_spec
    from repro.eval.campaign import run_campaign
    from repro.eval.store import ResultStore

    spec = build_spec(build_parser().parse_args(["smoke", "--seed", "5"]))
    digests = []
    for index, workers in enumerate((1, 1, 2)):
        store = tmp_path / f"s{index}.jsonl"
        run_campaign(spec, store_path=store, n_workers=workers, workdir=tmp_path)
        records = ResultStore(store).cell_records().values()
        digests.append(records_digest(r.to_dict() for r in records))
    assert len(set(digests)) == 1


# ---------------------------------------------------------------------- #
# import-site wrappers
# ---------------------------------------------------------------------- #
def _bindings():
    """Every attribute of every loaded ``repro`` module, of the ``repro``
    classes they hold and of the multiprocessing classes the layers wrap."""
    import multiprocessing.process
    import multiprocessing.queues

    owners = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    classes = [multiprocessing.process.BaseProcess, multiprocessing.queues.Queue]
    for module in list(owners):
        classes.extend(
            value
            for value in vars(module).values()
            if inspect.isclass(value)
            and getattr(value, "__module__", "").startswith("repro")
        )
    snapshot = {}
    for owner in owners + classes:
        for name, value in list(vars(owner).items()):
            snapshot[(id(owner), name)] = value
    return snapshot


def test_install_then_uninstall_restores_every_binding():
    from repro.snn import engine, kernels, models, synapse

    warm = Tracer()
    layers.install(warm)  # imports every wrapped module
    warm.uninstall()
    before = _bindings()
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert tracer.installed > 0
        wrapped = kernels.register_gemm
        assert engine.register_gemm is wrapped
        assert synapse.register_gemm is wrapped
        assert models.lif_advance is kernels.lif_advance
        assert inspect.unwrap(wrapped) is not wrapped
    finally:
        tracer.uninstall()
    after = _bindings()
    assert tracer.installed == 0
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
    assert inspect.unwrap(kernels.register_gemm) is kernels.register_gemm


# ---------------------------------------------------------------------- #
# the engine's peak allocation
# ---------------------------------------------------------------------- #
def test_engine_peak_probe_sees_temporaries_once_per_shape(fake_module):
    class Engine:
        n_unique_rows = 2

        def run_encoded(self, rasters):
            temporary = np.ones(2 * rasters.size)  # freed before returning
            return float(temporary.sum())

    tracer = Tracer(module_prefix="fakepkg")
    tracer.install_method(
        "engine", Engine, "run_encoded", around=layers.EnginePeakProbe()
    )
    try:
        engine = Engine()
        assert engine.run_encoded(np.zeros((4, 1000))) == 8000.0
        first = tracer.maxima["engine_peak_bytes"]
        assert first >= 8 * 8000
        engine.run_encoded(np.zeros((4, 1000)))  # same shape: not traced again
        assert tracer.maxima["engine_peak_bytes"] == first
        engine.run_encoded(np.zeros((8, 1000)))
        assert tracer.maxima["engine_peak_bytes"] >= 8 * 16000
    finally:
        tracer.uninstall()
    assert tracer.calls["engine"] == 3


# ---------------------------------------------------------------------- #
# the benchmark definition and entry point
# ---------------------------------------------------------------------- #
def test_per_layer_list_matches_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    assert [
        (item["name"], item["unit"], item["better"]) for item in bench["per_layer"]
    ] == [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER]


def test_run_without_library_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [
            sys.executable, str(tmp_path / HERE.name / "run.py"),
            "--workload", "fig13-serial", "--seed", "1",
            "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
