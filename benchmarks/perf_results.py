"""Recording perf bench results — only on purpose.

The ``test_perf_*`` benches gate on their own measurements every run, but
write ``benchmarks/results/*.json`` only when ``PERF_RECORD=1`` is set, so
an ordinary test run never rewrites tracked files and a results diff always
means an intentional measurement.  Call :func:`record_results` after every
assertion of the bench has passed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

RESULTS_DIR = Path(__file__).parent / "results"


def record_results(filename: str, summary: dict, section: Optional[str] = None) -> None:
    """Write *summary* to ``results/<filename>`` when ``PERF_RECORD=1``.

    With *section*, only that key of the file is replaced and the other
    keys are kept (benches that share one file).
    """
    if os.environ.get("PERF_RECORD") != "1":
        return
    path = RESULTS_DIR / filename
    if section is not None:
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged[section] = summary
        summary = merged
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2) + "\n")
