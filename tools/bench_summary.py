#!/usr/bin/env python
"""Fold one benchmark run into the checked-in BENCH_*.json histories.

The nightly bench job (``.github/workflows/nightly-bench.yml``) runs
the suite at the ``tiny`` preset, which drops machine-readable result
files into ``benchmarks/results/``.  This script appends those raw
runs to stable-schema history files at the repo root:

* ``BENCH_serving.json``   — serving throughput per tuple ratio;
* ``BENCH_memory.json``    — budgeted-serving residency and wall time;
* ``BENCH_runtime.json``   — runtime scaling rows/sec per config;
* ``BENCH_cache.json``     — cross-model sharing footprint;
* ``BENCH_overhead.json``  — telemetry on/off wall-time ratio;
* ``BENCH_maintenance.json`` — delta-apply vs full-refit wall time
  per update rate;
* ``BENCH_scenarios.json`` — scenario-suite medians per scenario.

Each history keeps the raw per-run records (most recent last, capped
at ``--keep``) plus a ``summary`` block of medians over the retained
runs, so a dashboard — or a reviewer diffing the PR — reads one number
per metric without re-deriving statistics.  The schema is versioned;
consumers should refuse ``schema_version`` values they do not know.

The per-bench ``flatten_*`` functions map one raw run to a flat
``{metric_key: float}`` dict; they are module-level so
``tools/regression_gate.py`` compares fresh runs against history
medians through the exact same lens this summary reports.

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

SCHEMA_VERSION = 1

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path):
    if not path.exists():
        return None
    with open(path) as handle:
        return json.load(handle)


def _fresh_history(name: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": name,
        "runs": [],
        "summary": {},
    }


def _append_run(history: dict, run: dict, keep: int) -> bool:
    """Append ``run`` unless its stamp is already recorded."""
    stamps = {r.get("generated_at") for r in history["runs"]}
    if run.get("generated_at") in stamps:
        return False
    history["runs"].append(run)
    history["runs"] = history["runs"][-keep:]
    return True


def _median_over(runs, pick) -> dict:
    """Median of every numeric leaf ``pick`` extracts from each run."""
    rows = [pick(run) for run in runs]
    keys = sorted({k for row in rows for k in row})
    return {
        key: round(median(row[key] for row in rows if key in row), 6)
        for key in keys
    }


# -- per-bench flatteners (one raw run → {metric_key: float}) -----------------


def flatten_serving(run: dict) -> dict:
    """Per tuple ratio: wall seconds per arm."""
    flat = {}
    for row in run.get("rows", []):
        rr = row["rr"]
        for field in (
            "gmm_m_s", "gmm_f_s", "nn_m_s", "nn_f_s", "nn_f_warm_s"
        ):
            flat[f"rr{rr}.{field}"] = float(row[field])
    return flat


def flatten_memory(run: dict) -> dict:
    """Residency/eviction/wall metrics per arm."""
    flat = {}
    for arm_name, arm in run.get("arms", {}).items():
        for field in (
            "peak_bytes", "bytes", "cross_evictions",
            "hit_rate", "seconds", "rows_per_sec",
        ):
            if field in arm:
                flat[f"{arm_name}.{field}"] = float(arm[field])
    return flat


def flatten_degradation(run: dict) -> dict:
    """Per-tier acquisition throughput plus the spill-vs-recompute
    ratio (``*speedup*`` and ``*rows_per_sec*`` both gate
    higher-is-better in tools/regression_gate.py)."""
    flat = {}
    for tier, point in run.get("tiers", {}).items():
        if "rows_per_sec" in point:
            flat[f"tier.{tier}.rows_per_sec"] = float(
                point["rows_per_sec"]
            )
    if "spill_speedup_vs_recompute" in run:
        flat["spill_speedup_vs_recompute"] = float(
            run["spill_speedup_vs_recompute"]
        )
    return flat


def flatten_runtime(run: dict) -> dict:
    """Baseline plus rows/sec and speedup per (executor, workers,
    batch) config.  Runs recorded before the executor dimension
    existed carry no ``executor`` key and keep their legacy
    ``w{N}.b{M}`` metric names, so old history rows still line up."""
    flat = {}
    if "baseline_rows_per_sec" in run:
        flat["baseline_rows_per_sec"] = float(run["baseline_rows_per_sec"])
    for config in run.get("configs", []):
        prefix = f"w{config['workers']}.b{config['batch_rows']}"
        if "executor" in config:
            prefix = f"{config['executor']}.{prefix}"
        flat[f"{prefix}.rows_per_sec"] = float(config["rows_per_sec"])
        flat[f"{prefix}.speedup"] = float(config["speedup"])
    if run.get("process_scaling_speedup_4w"):
        flat["process.scaling_speedup_4w"] = float(
            run["process_scaling_speedup_4w"]
        )
    return flat


def flatten_cache(run: dict) -> dict:
    """Footprint/hit-rate/wall metrics per sharing arm."""
    flat = {}
    for arm_name, arm in run.get("arms", {}).items():
        for field in ("bytes", "hit_rate", "seconds", "caches"):
            if field in arm:
                flat[f"{arm_name}.{field}"] = float(arm[field])
    return flat


def flatten_overhead(run: dict) -> dict:
    """Telemetry A/B wall times and their ratio."""
    return {
        key: float(run[key])
        for key in ("off_s", "on_s", "ratio")
        if key in run
    }


def flatten_maintenance(run: dict) -> dict:
    """Per update rate: delta/refit wall seconds and their ratio,
    plus the headline smallest-rate ``delta_speedup`` (``*speedup*``
    gates higher-is-better in tools/regression_gate.py)."""
    flat = {}
    for rate_key, point in run.get("rates", {}).items():
        for field in ("delta_s", "refit_s", "speedup"):
            if field in point:
                flat[f"{rate_key}.{field}"] = float(point[field])
    if "delta_speedup" in run:
        flat["delta_speedup"] = float(run["delta_speedup"])
    return flat


def flatten_scenarios(run: dict) -> dict:
    """Cross-trial medians per scenario, keyed ``<scenario>.<metric>``."""
    flat = {}
    for entry in run.get("scenarios", []):
        name = entry.get("scenario", "?")
        for key, stats in entry.get("summary", {}).items():
            if isinstance(stats, dict) and "median" in stats:
                flat[f"{name}.{key}"] = float(stats["median"])
    return flat


def _summarize(history: dict, flatten) -> None:
    history["summary"] = {
        "runs": len(history["runs"]),
        "median": _median_over(history["runs"], flatten),
    }


BENCHES = (
    # (raw results file, history file, flattener)
    ("serving_throughput.json", "BENCH_serving.json", flatten_serving),
    ("memory_pressure.json", "BENCH_memory.json", flatten_memory),
    ("memory_degradation.json", "BENCH_degradation.json",
     flatten_degradation),
    ("runtime_scaling.json", "BENCH_runtime.json", flatten_runtime),
    ("shared_cache.json", "BENCH_cache.json", flatten_cache),
    ("telemetry_overhead.json", "BENCH_overhead.json", flatten_overhead),
    ("maintenance.json", "BENCH_maintenance.json", flatten_maintenance),
    ("scenarios.json", "BENCH_scenarios.json", flatten_scenarios),
)


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

    for raw_name, history_name, flatten in BENCHES:
        raw = _load(args.results_dir / raw_name)
        if raw is None:
            print(f"bench_summary: no {raw_name}; skipping", file=sys.stderr)
            continue
        history_path = args.out_dir / history_name
        history = _load(history_path) or _fresh_history(raw.get("bench", ""))
        if history.get("schema_version") != SCHEMA_VERSION:
            print(
                f"bench_summary: {history_name} has schema_version "
                f"{history.get('schema_version')!r}, expected "
                f"{SCHEMA_VERSION}; refusing to rewrite it",
                file=sys.stderr,
            )
            return 1
        appended = _append_run(history, raw, args.keep)
        _summarize(history, flatten)
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
