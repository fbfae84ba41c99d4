#!/usr/bin/env python
"""Fail CI when a fresh bench run's ratios regress against history.

Compares the payloads a bench run just wrote to ``benchmarks/results/``
against the committed ``BENCH_*.json`` histories that
``tools/bench_summary.py`` maps them to (its :data:`HISTORIES` table).
Every gated number is a ``ratios`` entry — machine-independent, and
higher is better — so there is no direction to guess and no absolute
timer to forgive.

For every ratio the baseline is the **median of the retained history
runs**, the fresh run's own ``generated_at`` stamp excluded (gating
after summarizing is not self-comparison).  A regression is a ratio
below ``baseline × (1 - tolerance)``.  A history with fewer than
:data:`MIN_RUNS` baseline runs passes with a note.

Exit code 1 on any regression, and on any mapped history that is
missing or carries an unknown ``schema_version``, and on a fresh run
whose ratios are not exactly the mapped ones; 0 otherwise.  A bench
that wrote no fresh results is skipped with a note::

    python tools/regression_gate.py --tolerance 0.5
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from statistics import median

TOOLS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TOOLS_DIR.parent

sys.path.insert(0, str(TOOLS_DIR))

from bench_summary import HISTORIES, SCHEMA_VERSION, load  # noqa: E402

MIN_RUNS = 3


def gate_one(
    fresh: dict, history: dict, name: str, tolerance: float,
    report: list[str],
) -> int:
    """Gate one bench; returns the number of regressions found."""
    runs = [
        run for run in history["runs"]
        if run["generated_at"] != fresh["generated_at"]
    ]
    if len(runs) < MIN_RUNS:
        report.append(
            f"  {name}: only {len(runs)} baseline run(s) "
            f"(< {MIN_RUNS}); not gating"
        )
        return 0
    regressions = 0
    for key, value in sorted(fresh["ratios"].items()):
        baseline = median(run["ratios"][key] for run in runs)
        bound = baseline * (1 - tolerance)
        if value < bound:
            regressions += 1
            report.append(
                f"  REGRESSION {name}.{key}: {value:.6g} < {bound:.6g} "
                f"(baseline median {baseline:.6g} over {len(runs)} "
                f"run(s), tolerance {tolerance:.0%})"
            )
    report.append(
        f"  {name}: {len(fresh['ratios'])} ratio(s) gated against "
        f"{len(runs)} baseline run(s), {regressions} regression(s)"
    )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate fresh bench ratios against BENCH_*.json "
        "histories"
    )
    parser.add_argument(
        "--results-dir", type=Path,
        default=REPO_ROOT / "benchmarks" / "results",
        help="where the bench suite wrote its machine-readable results",
    )
    parser.add_argument(
        "--histories-dir", type=Path, default=REPO_ROOT,
        help="where the BENCH_*.json histories live (default: repo root)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.5,
        help="allowed relative drop below the baseline (0.5 = 50%%)",
    )
    args = parser.parse_args(argv)

    report: list[str] = ["regression_gate:"]
    failures = 0
    for raw_name, (name, keys) in HISTORIES.items():
        history = load(args.histories_dir / name)
        if history is None:
            report.append(f"  {name}: mapped but not committed")
            failures += 1
            continue
        if history.get("schema_version") != SCHEMA_VERSION:
            report.append(
                f"  {name}: unknown schema_version "
                f"{history.get('schema_version')!r}; refusing to gate"
            )
            failures += 1
            continue
        fresh = load(args.results_dir / raw_name)
        if fresh is None:
            report.append(f"  {name}: no fresh {raw_name}; skipped")
            continue
        if sorted(fresh["ratios"]) != sorted(keys):
            report.append(
                f"  {name}: fresh ratios {sorted(fresh['ratios'])}, "
                f"mapped {sorted(keys)}"
            )
            failures += 1
            continue
        failures += gate_one(fresh, history, name, args.tolerance, report)
    verdict = "FAIL" if failures else "ok"
    report.append(f"regression_gate: {verdict} ({failures} failure(s))")
    print("\n".join(report))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
