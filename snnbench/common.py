"""Small pieces shared by the benchmark and its steadiness check."""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import statistics
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples beyond.
TAIL_SAMPLES = 10


def tail_percentile(n_samples: int) -> float:
    """The highest percentile with at least :data:`TAIL_SAMPLES` samples beyond.

    With linear interpolation (``np.percentile``'s default) over ``n``
    sorted samples, percentile ``100 * (1 - 10 / n)`` falls strictly below
    the tenth-largest sample, so exactly ten samples lie beyond it.  ``n = 1000`` gives p99.
    """
    if n_samples <= TAIL_SAMPLES:
        raise ValueError(
            f"need more than {TAIL_SAMPLES} samples for a tail percentile, "
            f"got {n_samples}"
        )
    return 100.0 * (1.0 - TAIL_SAMPLES / n_samples)


def records_digest(records: Iterable[Mapping[str, Any]]) -> str:
    """SHA-256 of cell records with their measured ``duration_seconds`` zeroed.

    Records are ordered by ``cell_id`` and serialised with sorted keys, so
    the digest depends on what the campaign computed, not on completion
    order or timing.
    """
    normalised = []
    for record in records:
        record = dict(record)
        record["duration_seconds"] = 0.0
        normalised.append(record)
    normalised.sort(key=lambda record: record["cell_id"])
    payload = json.dumps(normalised, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def values_digest(values: Iterable[Any]) -> str:
    """SHA-256 of a JSON list of plain values."""
    payload = json.dumps(list(values), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` from ``statistics.quantiles``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


# ---------------------------------------------------------------------- #
# machine stamp
# ---------------------------------------------------------------------- #
def steal_ticks() -> Optional[int]:
    """Aggregate CPU steal ticks from ``/proc/stat`` (None off Linux)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def _openblas() -> Tuple[Optional[str], Optional[int]]:
    """(configuration string, thread count) of the OpenBLAS numpy loaded."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted(
                {
                    line.split()[-1]
                    for line in handle
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")
                }
            )
    except OSError:
        return None, None
    for path in paths:
        library = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                config = getattr(library, f"{prefix}_get_config{suffix}", None)
                threads = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    return config().decode(), int(threads())
    return None, None


class MachineStamp:
    """What the run ran on: taken before the work, completed after it."""

    def __init__(self) -> None:
        import numpy

        config, threads = _openblas()
        self.fields: Dict[str, Any] = {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else None,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "openblas": config,
            "blas_threads": threads,
            "load_before": [round(x, 2) for x in os.getloadavg()],
        }
        self._steal = steal_ticks()

    def finish(self) -> Dict[str, Any]:
        """Add the load average after the run and the steal-tick delta."""
        self.fields["load_after"] = [round(x, 2) for x in os.getloadavg()]
        steal = steal_ticks()
        self.fields["steal_ticks"] = (
            steal - self._steal
            if steal is not None and self._steal is not None
            else None
        )
        return self.fields
