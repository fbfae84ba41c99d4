"""The paper's evaluation (Section VII) as one table.

Every figure panel and table is one sweep of the three strategies over
one knob: ``FIGURES`` names each with its model kind, schema family,
swept axis and the paper's headline, and :func:`run_figure` runs any of
them.  Sweeps keep the paper's structure and ratios at laptop-scale
cardinalities.  Scale is controlled by ``BenchScale``; benches default
to the ``small`` preset so the whole suite finishes in minutes, while
``paper`` approaches the published sizes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.bench.harness import SweepResult, run_sweep
from repro.data.hamlet import load_hamlet, load_movies_3way
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.gmm.base import EMConfig
from repro.nn.base import NNConfig

# EM iterations / training epochs are pinned (tol=0) so every strategy
# does identical work and times are comparable, as in the paper's
# fixed-epoch runs (Section VII-A: 10 epochs).


@dataclass(frozen=True)
class BenchScale:
    """Workload sizes for one preset."""

    name: str
    n_r: int
    rr_values: tuple[int, ...]
    rr_fixed: int
    dr_values: tuple[int, ...]
    k_values: tuple[int, ...]
    nh_values: tuple[int, ...]
    hamlet_scale: float
    em_iterations: int = 3
    nn_epochs: int = 2
    n_components: int = 3
    hidden_units: int = 32


SCALES = {
    "tiny": BenchScale(
        name="tiny",
        n_r=40,
        rr_values=(10, 30, 100),
        rr_fixed=50,
        dr_values=(5, 15, 30),
        k_values=(2, 4),
        nh_values=(10, 30),
        hamlet_scale=0.005,
        em_iterations=2,
        nn_epochs=1,
        n_components=2,
        hidden_units=16,
    ),
    "small": BenchScale(
        name="small",
        n_r=150,
        rr_values=(25, 100, 400, 800),
        rr_fixed=300,
        dr_values=(5, 15, 40, 80),
        k_values=(2, 5, 8),
        nh_values=(15, 50, 100),
        hamlet_scale=0.01,
    ),
    "paper": BenchScale(
        name="paper",
        n_r=1000,
        rr_values=(50, 200, 1000, 2000, 5000),
        rr_fixed=1000,
        dr_values=(5, 15, 40, 80, 160),
        k_values=(2, 5, 10, 15),
        nh_values=(25, 50, 100, 200),
        hamlet_scale=0.1,
        em_iterations=3,
        nn_epochs=2,
        n_components=5,
        hidden_units=50,
    ),
}


def active_scale() -> BenchScale:
    """Preset selected by ``REPRO_BENCH_SCALE`` (default ``small``)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small")
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}, "
            f"got {name!r}"
        ) from None


#: The swept values of each axis (also the table's x label); a
#: ``"dataset"`` sweep lists its own.  Binary sweeps hold d_S=5 and,
#: off their axis, d_R=15 and rr=``rr_fixed``; Movies-3way sweeps hold
#: the published widths and cardinalities.
AXES = {
    "rr": lambda scale: scale.rr_values,
    "rr(R1/R2)": lambda scale: (0.5, 1.0, 2.0),
    "d_R": lambda scale: scale.dr_values,
    "d_R1": lambda scale: scale.dr_values[:3],
    "K": lambda scale: scale.k_values,
    "n_h": lambda scale: scale.nh_values,
}


@dataclass(frozen=True)
class Figure:
    """One figure panel or table: ``kind`` (``"gmm"`` / ``"nn"``) over
    a ``schema`` family (``"binary"`` synthetic stars,
    ``"movies-3way"``, or ``"hamlet"`` datasets), swept along ``axis``.
    ``title`` is formatted with the scale as ``s``."""

    kind: str
    schema: str
    axis: str
    title: str
    note: str
    datasets: tuple[str, ...] = ()

    def points(self, scale: BenchScale) -> list:
        """``(x, loader, config)`` per sweep point; a loader populates a
        fresh database and returns the join spec to train over."""
        xs = self.datasets or AXES[self.axis](scale)
        return [(x, self._loader(scale, x), self._config(scale, x)) for x in xs]

    def _loader(self, scale, x):
        target = self.kind == "nn"
        if self.schema == "binary":
            config = StarSchemaConfig.binary(
                n_s=scale.n_r * (x if self.axis == "rr" else scale.rr_fixed),
                n_r=scale.n_r, d_s=5, d_r=x if self.axis == "d_R" else 15,
                with_target=target, seed=3,
            )
            return lambda db: generate_star(db, config).spec
        if self.schema == "hamlet" and x != "movies-3way":
            return lambda db: load_hamlet(
                db, x, scale=scale.hamlet_scale, with_target=target, seed=3,
            ).spec
        return lambda db: load_movies_3way(
            db, scale=scale.hamlet_scale,
            rr_synthetic=x if self.axis == "rr(R1/R2)" else None,
            d_r1=x if self.axis == "d_R1" else None,
            with_target=target, seed=3,
        ).spec

    def _config(self, scale, x):
        if self.kind == "gmm":
            return EMConfig(
                n_components=x if self.axis == "K" else scale.n_components,
                max_iter=scale.em_iterations, tol=0.0, seed=1,
            )
        return NNConfig(
            hidden_sizes=(x if self.axis == "n_h" else scale.hidden_units,),
            epochs=scale.nn_epochs, learning_rate=0.01, seed=1,
        )


FIGURES = {
    "fig3a": Figure("gmm", "binary", "rr",
        "Fig 3(a) GMM vary rr (d_S=5, d_R=15, n_R={s.n_r}, K={s.n_components})",
        "paper: F-GMM 2x faster at d_R=5 growing to 2.4x at d_R=15"),
    "fig3b": Figure("gmm", "binary", "d_R",
        "Fig 3(b) GMM vary d_R (d_S=5, rr={s.rr_fixed}, K={s.n_components})",
        "paper: 2x to 6.5x, increasing with d_R"),
    "fig3c": Figure("gmm", "binary", "K",
        "Fig 3(c) GMM vary K (d_S=5, d_R=15, rr={s.rr_fixed})",
        "paper: 2x to 3x across K"),
    "fig4a": Figure("gmm", "movies-3way", "rr(R1/R2)",
        "Fig 4(a) GMM 3-way vary rr (Movies-3way)",
        "paper: 3x to 5x as rr grows"),
    "fig4b": Figure("gmm", "movies-3way", "d_R1",
        "Fig 4(b) GMM 3-way vary d_R1 (Movies-3way)",
        "paper: 3x to 14x, increasing with d_R1"),
    "fig4c": Figure("gmm", "movies-3way", "K",
        "Fig 4(c) GMM 3-way vary K (Movies-3way)",
        "paper: 3x to 5x across K"),
    "fig5a": Figure("nn", "binary", "rr",
        "Fig 5(a) NN vary rr (d_S=5, d_R=15, n_h={s.hidden_units})",
        "paper: >2x at d_R=5 rising to 3x at d_R=15; no benefit below "
        "rr≈200 (d_R=5) / rr≈50 (d_R=15)"),
    "fig5b": Figure("nn", "binary", "d_R",
        "Fig 5(b) NN vary d_R (d_S=5, rr={s.rr_fixed}, n_h={s.hidden_units})",
        "paper: 2x to 3.5x, increasing with d_R"),
    "fig5c": Figure("nn", "binary", "n_h",
        "Fig 5(c) NN vary n_h (d_S=5, d_R=15, rr={s.rr_fixed})",
        "paper: 2x to 3x across n_h"),
    "fig6a": Figure("nn", "movies-3way", "rr(R1/R2)",
        "Fig 6(a) NN 3-way vary rr (Movies-3way)",
        "paper: 3x to 4x as rr grows"),
    "fig6b": Figure("nn", "movies-3way", "d_R1",
        "Fig 6(b) NN 3-way vary d_R1 (Movies-3way)",
        "paper: 3x (small rr) to 6x (large rr)"),
    "fig6c": Figure("nn", "movies-3way", "n_h",
        "Fig 6(c) NN 3-way vary n_h (Movies-3way)",
        "paper: up to 4x across n_h"),
    "table6": Figure("gmm", "hamlet", "dataset",
        "Table VI GMM on simulated Hamlet datasets (scale={s.hamlet_scale})",
        "paper: F-GMM up to 3.4x (binary) and 4.4x (3-way) faster",
        datasets=(
            "expedia1", "expedia2", "walmart", "movies",
            "expedia3", "expedia4", "expedia5", "movies-3way",
        )),
    "table7": Figure("nn", "hamlet", "dataset",
        "Table VII NN on simulated sparse Hamlet datasets "
        "(scale={s.hamlet_scale})",
        "paper: F-NN 8.1x (Walmart), 4.5x (Movies), 3.4x (3-way)",
        datasets=("walmart_sparse", "movies_sparse", "movies-3way")),
}


def run_figure(name: str, scale: BenchScale | None = None) -> SweepResult:
    """Reproduce ``FIGURES[name]`` at ``scale`` (default: the active
    preset)."""
    figure = FIGURES[name]
    scale = scale or active_scale()
    result = run_sweep(
        figure.title.format(s=scale), figure.axis, figure.points(scale),
        figure.kind,
    )
    result.notes.append(figure.note)
    return result
