"""The one machine-readable result a bench writes: its ratios.

A bench whose history is gated (``tools/bench_summary.py`` maps its
results file to a ``BENCH_*.json`` history) writes one payload per run
through :func:`write_payload`: the ``bench`` name, a ``generated_at``
stamp (the key ``tools/bench_summary.py`` dedupes on), the ``params``
it ran at, and one ``ratios`` dict — machine-independent ratios where
higher is better, the only numbers ``tools/regression_gate.py`` gates.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


def write_payload(
    results_dir: Path, bench: str, params: dict, ratios: dict
) -> Path:
    """Write ``<results_dir>/<bench>.json``; returns the path."""
    payload = {
        "bench": bench,
        "generated_at": time.time(),
        "params": params,
        "ratios": {key: float(value) for key, value in ratios.items()},
    }
    path = Path(results_dir) / f"{bench}.json"
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
