"""Shared benchmark fixtures.

The paper's figures and tables are one module,
``bench_paper_figures.py``, over the one table ``repro.bench.FIGURES``:

* ``test_figure`` — runs the full sweep for a figure panel or table
  once, prints the paper-style table (bypassing pytest capture) and
  writes it to ``benchmarks/results/``;
* ``test_micro`` — pytest-benchmark timings of the individual
  training strategies on each figure family's reference point, so the
  benchmark summary table itself shows who wins.

Workload sizes follow the ``REPRO_BENCH_SCALE`` preset (tiny / small /
paper); see ``repro.bench.experiments``.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _quiet_convergence_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit_series(result, results_dir: Path, name: str) -> None:
    """Print a sweep table and persist it under benchmarks/results/."""
    result.emit(results_dir / f"{name}.txt")


def pytest_terminal_summary(terminalreporter):
    """Replay every reproduced figure/table after the benchmark table.

    pytest's fd-level capture swallows mid-run prints, so the series
    written to ``benchmarks/results/`` are echoed here, where output
    reaches the real terminal (and any ``tee``'d log).
    """
    tables = sorted(RESULTS_DIR.glob("*.txt"))
    if not tables:
        return
    terminalreporter.section("paper figure/table reproductions")
    for path in tables:
        terminalreporter.write(path.read_text() + "\n")
