"""SoftSNN benchmark: one workload, one seed, every metric by name and unit.

Usage, from the root of a checkout::

    python3 snnbench/run.py --workload fig13-serial --seed 1 --seconds 36 --trace 0

A run repeats rounds of a fresh set-up and a measured pass for
``--seconds`` seconds (``setup_s`` is the median of the set-ups), then
checks the outputs (see ``workloads.py``).  With ``--trace 0`` the last line of
standard output carries the end-to-end metrics; with ``--trace 1`` the
library's layers are wrapped at their import sites and the last line
carries the per-layer metrics (``layers.py``).  The lines above the last
are for people: the machine stamp, the checks, every metric with its unit
and, for a per-layer metric, the end-to-end metric it should move.

The benchmark sets no thread environment variables: it measures the
library as users run it.  Scratch files go to ``.snnbench/`` in the
checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import MachineStamp  # noqa: E402

WORKLOADS = ("fig13-serial", "fig13-pool2", "serve-3mode")


def _benchmark_spec() -> Dict[str, Dict[str, str]]:
    """Units of every metric named in ``BENCHMARK.json``, by section."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {
        section: {item["name"]: item["unit"] for item in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if the pool started one."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no library sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    units = _benchmark_spec()

    work = ROOT / ".snnbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work)
    stamp = MachineStamp()

    import workloads

    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        layers.install(tracer)
    pins = json.loads((HERE / "pins.json").read_text())
    try:
        if args.workload == "serve-3mode":
            outcome = workloads.run_serve_workload(
                args.seed, args.seconds, work, pins, tracer
            )
        else:
            outcome = workloads.run_campaign_workload(
                args.workload, args.seed, args.seconds, work, pins, tracer
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
        _stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)
        tempfile.tempdir = None
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's scratch directory is still there
    machine = stamp.finish()

    section = "per_layer" if args.trace else "end_to_end"
    values = outcome.layers if args.trace else outcome.metrics
    lines: List[str] = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}",
        "machine " + json.dumps(machine, sort_keys=True),
    ]
    lines += [f"note: {note.rstrip()}" for note in outcome.notes]
    lines += [
        f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else "")
        for name, ok, detail in outcome.checks
    ]
    missing = sorted(set(units[section]) - set(values))
    correct = (
        all(ok for _, ok, _ in outcome.checks)
        and outcome.failed == 0
        and not missing
    )
    if missing:
        lines.append(f"missing metrics: {', '.join(missing)}")
    moves = {}
    if args.trace:
        moves = {name: target for name, _, _, target in layers.PER_LAYER}
    for name, unit in units[section].items():
        if name in values:
            target = f"  -> {moves[name]}" if name in moves else ""
            lines.append(f"{name:46s} {values[name]:14.6g} {unit:6s}{target}")
    lines.append(f"attempted {outcome.attempted}  failed {outcome.failed}")
    print("\n".join(lines))
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units[section].items()
            if name in values
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
