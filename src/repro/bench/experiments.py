"""Definitions of every figure and table in the paper's evaluation.

Each function reproduces one figure panel or table of Section VII at
laptop scale: same sweep structure and ratios, scaled-down absolute
cardinalities (see DESIGN.md §4 and EXPERIMENTS.md).  Scale is
controlled by ``BenchScale``; benches default to the ``small`` preset so
the whole suite finishes in minutes, while ``paper`` approaches the
published sizes.
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


def _gmm_config(scale: BenchScale, n_components: int | None = None):
    return EMConfig(
        n_components=n_components or scale.n_components,
        max_iter=scale.em_iterations,
        tol=0.0,
        seed=1,
    )


def _nn_config(scale: BenchScale, hidden: int | None = None):
    return NNConfig(
        hidden_sizes=(hidden or scale.hidden_units,),
        epochs=scale.nn_epochs,
        learning_rate=0.01,
        batch_mode="per-batch",
        seed=1,
    )


def _binary_loader(n_s, n_r, d_s, d_r, *, with_target=False, seed=3):
    def loader(db):
        config = StarSchemaConfig.binary(
            n_s=n_s, n_r=n_r, d_s=d_s, d_r=d_r,
            with_target=with_target, seed=seed,
        )
        return generate_star(db, config).spec
    return loader


def _movies_3way_loader(*, hamlet_scale, rr_synthetic=None, d_r1=None,
                        with_target=False, seed=3):
    def loader(db):
        return load_movies_3way(
            db, scale=hamlet_scale, rr_synthetic=rr_synthetic,
            d_r1=d_r1, with_target=with_target, seed=seed,
        ).spec
    return loader


# -- Figure 3: GMM over binary joins -----------------------------------------


def figure3a(scale: BenchScale | None = None, d_r: int = 15) -> SweepResult:
    """Fig. 3(a): GMM runtimes varying the tuple ratio rr."""
    scale = scale or active_scale()
    cases = [
        (rr, _binary_loader(scale.n_r * rr, scale.n_r, 5, d_r))
        for rr in scale.rr_values
    ]
    result = run_sweep(
        f"Fig 3(a) GMM vary rr (d_S=5, d_R={d_r}, "
        f"n_R={scale.n_r}, K={scale.n_components})",
        "rr",
        cases,
        "gmm", _gmm_config(scale),
    )
    result.notes.append(
        "paper: F-GMM 2x faster at d_R=5 growing to 2.4x at d_R=15"
    )
    return result


def figure3b(scale: BenchScale | None = None) -> SweepResult:
    """Fig. 3(b): GMM runtimes varying d_R."""
    scale = scale or active_scale()
    n_s = scale.n_r * scale.rr_fixed
    cases = [
        (d_r, _binary_loader(n_s, scale.n_r, 5, d_r))
        for d_r in scale.dr_values
    ]
    result = run_sweep(
        f"Fig 3(b) GMM vary d_R (d_S=5, rr={scale.rr_fixed}, "
        f"K={scale.n_components})",
        "d_R",
        cases,
        "gmm", _gmm_config(scale),
    )
    result.notes.append("paper: 2x to 6.5x, increasing with d_R")
    return result


def figure3c(scale: BenchScale | None = None) -> SweepResult:
    """Fig. 3(c): GMM runtimes varying the number of clusters K."""
    scale = scale or active_scale()
    n_s = scale.n_r * scale.rr_fixed
    loader = _binary_loader(n_s, scale.n_r, 5, 15)
    result = SweepResult(
        experiment=(
            f"Fig 3(c) GMM vary K (d_S=5, d_R=15, rr={scale.rr_fixed})"
        ),
        x_label="K",
    )
    for k in scale.k_values:
        partial = run_sweep(
            "", "K", [(k, loader)], "gmm", _gmm_config(scale, n_components=k)
        )
        result.points.extend(partial.points)
    result.notes.append("paper: 2x to 3x across K")
    return result


# -- Figure 4: GMM over multi-way joins ---------------------------------------


def figure4a(scale: BenchScale | None = None) -> SweepResult:
    """Fig. 4(a): 3-way GMM varying synthetic R1 injection ratio."""
    scale = scale or active_scale()
    cases = [
        (rr, _movies_3way_loader(
            hamlet_scale=scale.hamlet_scale, rr_synthetic=rr
        ))
        for rr in (0.5, 1.0, 2.0)
    ]
    result = run_sweep(
        "Fig 4(a) GMM 3-way vary rr (Movies-3way)",
        "rr(R1/R2)",
        cases,
        "gmm", _gmm_config(scale),
    )
    result.notes.append("paper: 3x to 5x as rr grows")
    return result


def figure4b(scale: BenchScale | None = None) -> SweepResult:
    """Fig. 4(b): 3-way GMM varying d_R1."""
    scale = scale or active_scale()
    cases = [
        (d_r1, _movies_3way_loader(
            hamlet_scale=scale.hamlet_scale, d_r1=d_r1
        ))
        for d_r1 in scale.dr_values[:3]
    ]
    result = run_sweep(
        "Fig 4(b) GMM 3-way vary d_R1 (Movies-3way)",
        "d_R1",
        cases,
        "gmm", _gmm_config(scale),
    )
    result.notes.append("paper: 3x to 14x, increasing with d_R1")
    return result


def figure4c(scale: BenchScale | None = None) -> SweepResult:
    """Fig. 4(c): 3-way GMM varying K."""
    scale = scale or active_scale()
    loader = _movies_3way_loader(hamlet_scale=scale.hamlet_scale)
    result = SweepResult(
        experiment="Fig 4(c) GMM 3-way vary K (Movies-3way)",
        x_label="K",
    )
    for k in scale.k_values:
        partial = run_sweep(
            "", "K", [(k, loader)], "gmm", _gmm_config(scale, n_components=k)
        )
        result.points.extend(partial.points)
    result.notes.append("paper: 3x to 5x across K")
    return result


# -- Figure 5: NN over binary joins -------------------------------------------


def figure5a(scale: BenchScale | None = None, d_r: int = 15) -> SweepResult:
    """Fig. 5(a): NN runtimes varying rr."""
    scale = scale or active_scale()
    cases = [
        (rr, _binary_loader(
            scale.n_r * rr, scale.n_r, 5, d_r, with_target=True
        ))
        for rr in scale.rr_values
    ]
    result = run_sweep(
        f"Fig 5(a) NN vary rr (d_S=5, d_R={d_r}, "
        f"n_h={scale.hidden_units})",
        "rr",
        cases,
        "nn", _nn_config(scale),
    )
    result.notes.append(
        "paper: >2x at d_R=5 rising to 3x at d_R=15; no benefit below "
        "rr≈200 (d_R=5) / rr≈50 (d_R=15)"
    )
    return result


def figure5b(scale: BenchScale | None = None) -> SweepResult:
    """Fig. 5(b): NN runtimes varying d_R."""
    scale = scale or active_scale()
    n_s = scale.n_r * scale.rr_fixed
    cases = [
        (d_r, _binary_loader(n_s, scale.n_r, 5, d_r, with_target=True))
        for d_r in scale.dr_values
    ]
    result = run_sweep(
        f"Fig 5(b) NN vary d_R (d_S=5, rr={scale.rr_fixed}, "
        f"n_h={scale.hidden_units})",
        "d_R",
        cases,
        "nn", _nn_config(scale),
    )
    result.notes.append("paper: 2x to 3.5x, increasing with d_R")
    return result


def figure5c(scale: BenchScale | None = None) -> SweepResult:
    """Fig. 5(c): NN runtimes varying the hidden width n_h."""
    scale = scale or active_scale()
    n_s = scale.n_r * scale.rr_fixed
    loader = _binary_loader(n_s, scale.n_r, 5, 15, with_target=True)
    result = SweepResult(
        experiment=(
            f"Fig 5(c) NN vary n_h (d_S=5, d_R=15, rr={scale.rr_fixed})"
        ),
        x_label="n_h",
    )
    for n_h in scale.nh_values:
        partial = run_sweep(
            "", "n_h", [(n_h, loader)], "nn",
            _nn_config(scale, hidden=n_h),
        )
        result.points.extend(partial.points)
    result.notes.append("paper: 2x to 3x across n_h")
    return result


# -- Figure 6: NN over multi-way joins ----------------------------------------


def figure6a(scale: BenchScale | None = None) -> SweepResult:
    """Fig. 6(a): 3-way NN varying rr."""
    scale = scale or active_scale()
    cases = [
        (rr, _movies_3way_loader(
            hamlet_scale=scale.hamlet_scale, rr_synthetic=rr,
            with_target=True,
        ))
        for rr in (0.5, 1.0, 2.0)
    ]
    result = run_sweep(
        "Fig 6(a) NN 3-way vary rr (Movies-3way)",
        "rr(R1/R2)",
        cases,
        "nn", _nn_config(scale),
    )
    result.notes.append("paper: 3x to 4x as rr grows")
    return result


def figure6b(scale: BenchScale | None = None) -> SweepResult:
    """Fig. 6(b): 3-way NN varying d_R1."""
    scale = scale or active_scale()
    cases = [
        (d_r1, _movies_3way_loader(
            hamlet_scale=scale.hamlet_scale, d_r1=d_r1, with_target=True
        ))
        for d_r1 in scale.dr_values[:3]
    ]
    result = run_sweep(
        "Fig 6(b) NN 3-way vary d_R1 (Movies-3way)",
        "d_R1",
        cases,
        "nn", _nn_config(scale),
    )
    result.notes.append("paper: 3x (small rr) to 6x (large rr)")
    return result


def figure6c(scale: BenchScale | None = None) -> SweepResult:
    """Fig. 6(c): 3-way NN varying n_h."""
    scale = scale or active_scale()
    loader = _movies_3way_loader(
        hamlet_scale=scale.hamlet_scale, with_target=True
    )
    result = SweepResult(
        experiment="Fig 6(c) NN 3-way vary n_h (Movies-3way)",
        x_label="n_h",
    )
    for n_h in scale.nh_values:
        partial = run_sweep(
            "", "n_h", [(n_h, loader)], "nn",
            _nn_config(scale, hidden=n_h),
        )
        result.points.extend(partial.points)
    result.notes.append("paper: up to 4x across n_h")
    return result


# -- Tables VI and VII: real datasets ------------------------------------------

TABLE6_DATASETS = (
    "expedia1", "expedia2", "walmart", "movies",
    "expedia3", "expedia4", "expedia5",
)

TABLE7_DATASETS = ("walmart_sparse", "movies_sparse")


def table6(scale: BenchScale | None = None) -> SweepResult:
    """Table VI: GMM on (simulated) real datasets + Movies-3way."""
    scale = scale or active_scale()
    cases = [
        (name, _hamlet_loader(name, scale.hamlet_scale))
        for name in TABLE6_DATASETS
    ]
    cases.append(
        (
            "movies-3way",
            _movies_3way_loader(hamlet_scale=scale.hamlet_scale),
        )
    )
    result = run_sweep(
        f"Table VI GMM on simulated Hamlet datasets "
        f"(scale={scale.hamlet_scale})",
        "dataset",
        cases,
        "gmm", _gmm_config(scale),
    )
    result.notes.append(
        "paper: F-GMM up to 3.4x (binary) and 4.4x (3-way) faster"
    )
    return result


def table7(scale: BenchScale | None = None) -> SweepResult:
    """Table VII: NN on (simulated) sparse real datasets + Movies-3way."""
    scale = scale or active_scale()
    cases = [
        (name, _hamlet_loader(name, scale.hamlet_scale))
        for name in TABLE7_DATASETS
    ]
    cases.append(
        (
            "movies-3way",
            _movies_3way_loader(
                hamlet_scale=scale.hamlet_scale, with_target=True
            ),
        )
    )
    result = run_sweep(
        f"Table VII NN on simulated sparse Hamlet datasets "
        f"(scale={scale.hamlet_scale})",
        "dataset",
        cases,
        "nn", _nn_config(scale),
    )
    result.notes.append(
        "paper: F-NN 8.1x (Walmart), 4.5x (Movies), 3.4x (3-way)"
    )
    return result


def _hamlet_loader(name: str, hamlet_scale: float):
    def loader(db):
        return load_hamlet(db, name, scale=hamlet_scale, seed=3).spec
    return loader


ALL_EXPERIMENTS = {
    "fig3a": figure3a,
    "fig3b": figure3b,
    "fig3c": figure3c,
    "fig4a": figure4a,
    "fig4b": figure4b,
    "fig4c": figure4c,
    "fig5a": figure5a,
    "fig5b": figure5b,
    "fig5c": figure5c,
    "fig6a": figure6a,
    "fig6b": figure6b,
    "fig6c": figure6c,
    "table6": table6,
    "table7": table7,
}
