#!/usr/bin/env python
"""Fold one benchmark run into the checked-in BENCH_*.json histories.

The nightly bench job (``.github/workflows/nightly-bench.yml``) runs
the suite at the ``tiny`` preset; the benches in :data:`HISTORIES`
drop one machine-readable payload each into ``benchmarks/results/``
(``benchmarks/_payload.py``).  A payload's only gated numbers are its
``ratios`` — machine-independent ratios where higher is better, which
the end-to-end driver (``benchmarks/e2e/``) cannot measure:

* ``BENCH_memory.json``      — governed ÷ unbounded serving rows/s;
* ``BENCH_degradation.json`` — spill ÷ recompute re-acquisition rows/s;
* ``BENCH_maintenance.json`` — min over update rates of refit ÷ delta;
* ``BENCH_overhead.json``    — telemetry off ÷ on wall time.

Each history keeps the raw per-run records (most recent last, capped
at ``--keep``) plus a ``summary`` block of the ratios' medians over the
retained runs.  The schema is versioned; this script and
``tools/regression_gate.py`` refuse a ``schema_version`` they do not
know.

Usage (what the nightly job runs)::

    python tools/bench_summary.py
    python tools/bench_summary.py --results-dir benchmarks/results \
        --out-dir . --keep 30

Idempotency: a run is identified by its ``generated_at`` stamp; re-
summarizing the same results directory twice appends nothing new.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median

SCHEMA_VERSION = 2

REPO_ROOT = Path(__file__).resolve().parent.parent

#: raw results file → (committed history, the ratio keys its runs carry)
HISTORIES = {
    "memory_pressure.json": (
        "BENCH_memory.json", ("governed_over_unbounded",)),
    "memory_degradation.json": (
        "BENCH_degradation.json", ("spill_over_recompute",)),
    "maintenance.json": (
        "BENCH_maintenance.json", ("min_refit_over_delta",)),
    "telemetry_overhead.json": ("BENCH_overhead.json", ("off_over_on",)),
}


def load(path: Path):
    if not path.exists():
        return None
    with open(path) as handle:
        return json.load(handle)


def _append_run(history: dict, run: dict, keep: int) -> bool:
    """Append ``run`` unless its stamp is already recorded."""
    if run["generated_at"] in {r["generated_at"] for r in history["runs"]}:
        return False
    history["runs"] = (history["runs"] + [run])[-keep:]
    return True


def _summarize(history: dict) -> None:
    keys = sorted({key for run in history["runs"] for key in run["ratios"]})
    history["summary"] = {
        "runs": len(history["runs"]),
        "median": {
            key: round(median(
                run["ratios"][key]
                for run in history["runs"] if key in run["ratios"]
            ), 6)
            for key in keys
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Append benchmark results to BENCH_*.json histories"
    )
    parser.add_argument(
        "--results-dir", type=Path,
        default=REPO_ROOT / "benchmarks" / "results",
        help="where the bench suite wrote its machine-readable results",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=REPO_ROOT,
        help="where the BENCH_*.json histories live (default: repo root)",
    )
    parser.add_argument(
        "--keep", type=int, default=30,
        help="retain at most this many raw runs per history",
    )
    args = parser.parse_args(argv)

    for raw_name, (history_name, _) in HISTORIES.items():
        raw = load(args.results_dir / raw_name)
        if raw is None:
            print(f"bench_summary: no {raw_name}; skipping", file=sys.stderr)
            continue
        history_path = args.out_dir / history_name
        history = load(history_path) or {
            "schema_version": SCHEMA_VERSION, "bench": raw["bench"],
            "runs": [], "summary": {},
        }
        if history.get("schema_version") != SCHEMA_VERSION:
            print(
                f"bench_summary: {history_name} has schema_version "
                f"{history.get('schema_version')!r}, expected "
                f"{SCHEMA_VERSION}; refusing to rewrite it",
                file=sys.stderr,
            )
            return 1
        appended = _append_run(history, raw, args.keep)
        _summarize(history)
        with open(history_path, "w") as handle:
            json.dump(history, handle, indent=2, sort_keys=True)
            handle.write("\n")
        state = "appended" if appended else "already recorded"
        print(
            f"bench_summary: {history_name}: {state}, "
            f"{len(history['runs'])} run(s) retained"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
