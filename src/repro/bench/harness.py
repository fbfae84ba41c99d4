"""Experiment harness: run strategy comparisons, collect series, render
paper-style tables.

Every figure/table in Section VII is a sweep over one workload knob
(``rr``, ``d_R``, ``K``, ``n_h``, or a dataset name) comparing the
wall-clock time of the three strategies.  The harness runs each sweep
point in a fresh temporary database, verifies that all strategies
produced the same model (the exactness invariant travels with every
benchmark), and renders the series as an aligned text table.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable

from repro.core.api import FACTORIZED, STREAMING, compare_strategies
from repro.core.training import ACCESS
from repro.errors import ModelError
from repro.gmm.base import EMConfig
from repro.join.spec import JoinSpec
from repro.nn.base import NNConfig
from repro.storage.catalog import Database

#: One sweep point: the x value, a loader that populates a fresh
#: database and returns the join spec, and the point's training config.
Point = tuple[object, Callable[[Database], JoinSpec], EMConfig | NNConfig]

STRATEGY_ORDER = tuple(ACCESS)


@dataclass
class SweepPoint:
    """One x-value of a sweep: wall times per strategy."""

    x: object
    seconds: dict[str, float]

    def best_baseline_speedup(self) -> float:
        """Fastest baseline's time over factorized time (the paper's
        headline ratio)."""
        return min(
            t for name, t in self.seconds.items() if name != FACTORIZED
        ) / self.seconds[FACTORIZED]


@dataclass
class SweepResult:
    """A full series: the reproduction of one figure panel or table."""

    experiment: str
    x_label: str
    points: list[SweepPoint] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Aligned text table in the style of the paper's tables."""
        headers = (
            [self.x_label]
            + [f"{ACCESS[s].letter} (s)" for s in STRATEGY_ORDER]
            + ["F speedup"]
        )
        rows = []
        for point in self.points:
            row = [str(point.x)]
            row.extend(f"{point.seconds[s]:.3f}" for s in STRATEGY_ORDER)
            row.append(f"{point.best_baseline_speedup():.2f}x")
            rows.append(row)
        lines = [f"== {self.experiment} =="]
        lines.append(_format_table(headers, rows))
        for note in self.notes:
            lines.append(f"   {note}")
        return "\n".join(lines)

    def emit(self, path=None) -> None:
        """Print to the real stdout (visible under pytest capture) and
        optionally persist to ``path``."""
        text = self.render()
        sys.__stdout__.write("\n" + text + "\n")
        sys.__stdout__.flush()
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(row):
        return "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
    line = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(headers), line] + [fmt(r) for r in rows])


def run_sweep(
    experiment: str, x_label: str, points: list[Point], kind: str
) -> SweepResult:
    """Run one figure panel of ``kind`` (``"gmm"`` / ``"nn"``): every
    strategy at every point, each point in a fresh database, checking
    that the strategies trained the same model."""
    result = SweepResult(experiment=experiment, x_label=x_label)
    for x, loader, config in points:
        with Database() as db:
            spec = loader(db)
            comparison = compare_strategies(db, spec, kind, config)
            _CHECK_EQUAL[kind](comparison, config)
            result.points.append(
                SweepPoint(x=x, seconds=comparison.wall_times())
            )
    return result


def _check_gmm_equal(comparison, config: EMConfig) -> None:
    # Belt-and-braces check (the strict per-iteration invariant lives in
    # tests/gmm): tolerances are loose enough to absorb float-noise
    # amplification on ill-conditioned covariances (d >> n_R at small
    # scales) while still catching any real algorithmic divergence.
    results = list(comparison.results.values())
    for other in results[1:]:
        if not results[0].params.allclose(
            other.params, rtol=1e-3, atol=1e-5
        ):
            raise ModelError(
                "strategies disagree on the trained GMM — the exactness "
                "invariant is broken"
            )


def _check_nn_equal(comparison, config: NNConfig) -> None:
    import numpy as np

    # In "per-batch" mode M-NN sees different batch *boundaries* than
    # S-/F-NN (page blocks vs dimension blocks), so its mini-batch
    # trajectory legitimately differs; only S vs F share batches.  In
    # "full" mode all strategies must coincide.
    names = (
        list(comparison.results) if config.batch_mode == "full"
        else [STREAMING, FACTORIZED]
    )
    reference = comparison.results[names[0]].model
    for name in names[1:]:
        other = comparison.results[name].model
        for layer_a, layer_b in zip(reference.layers, other.layers):
            if not np.allclose(
                layer_a.weights, layer_b.weights, rtol=1e-5, atol=1e-7
            ):
                raise ModelError(
                    "strategies disagree on the trained NN — the "
                    "exactness invariant is broken"
                )


_CHECK_EQUAL = {"gmm": _check_gmm_equal, "nn": _check_nn_equal}
