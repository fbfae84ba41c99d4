"""Benchmark harness: the paper's evaluation table and its runner."""

from repro.bench.experiments import (
    FIGURES,
    SCALES,
    BenchScale,
    Figure,
    active_scale,
    run_figure,
)
from repro.bench.harness import (
    SweepPoint,
    SweepResult,
    run_sweep,
)

__all__ = [
    "BenchScale",
    "FIGURES",
    "Figure",
    "SCALES",
    "SweepPoint",
    "SweepResult",
    "active_scale",
    "run_figure",
    "run_sweep",
]
