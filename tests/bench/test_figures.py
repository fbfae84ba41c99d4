"""Every ``FIGURES`` entry builds the workload the paper's panel names.

The sweeps run the loaders only (``run_sweep`` swapped for a recorder,
no training), at the ``tiny`` preset, and pin each panel to literals
captured from the per-figure functions the table replaced: title, x
label, paper note, and per point the x value, the fact's rows and
width, each dimension's rows and width, whether a target exists, K or
n_h, and EM iterations or NN epochs.
"""

import pytest

from repro.bench import experiments
from repro.bench.harness import SweepPoint, SweepResult
from repro.storage.catalog import Database

BINARY = ((40, 15),)
MOVIES = ((30, 4), (19, 21))

# name: (title, x label, note, [(x, n_S, d_S, dims, target, K|n_h, steps)])
EXPECTED = {
    "fig3a": (
        "Fig 3(a) GMM vary rr (d_S=5, d_R=15, n_R=40, K=2)", "rr",
        "paper: F-GMM 2x faster at d_R=5 growing to 2.4x at d_R=15",
        [(10, 400, 5, BINARY, False, 2, 2),
         (30, 1200, 5, BINARY, False, 2, 2),
         (100, 4000, 5, BINARY, False, 2, 2)],
    ),
    "fig3b": (
        "Fig 3(b) GMM vary d_R (d_S=5, rr=50, K=2)", "d_R",
        "paper: 2x to 6.5x, increasing with d_R",
        [(5, 2000, 5, ((40, 5),), False, 2, 2),
         (15, 2000, 5, ((40, 15),), False, 2, 2),
         (30, 2000, 5, ((40, 30),), False, 2, 2)],
    ),
    "fig3c": (
        "Fig 3(c) GMM vary K (d_S=5, d_R=15, rr=50)", "K",
        "paper: 2x to 3x across K",
        [(2, 2000, 5, BINARY, False, 2, 2),
         (4, 2000, 5, BINARY, False, 4, 2)],
    ),
    "fig4a": (
        "Fig 4(a) GMM 3-way vary rr (Movies-3way)", "rr(R1/R2)",
        "paper: 3x to 5x as rr grows",
        [(0.5, 5001, 1, ((10, 4), (19, 21)), False, 2, 2),
         (1.0, 5001, 1, ((19, 4), (19, 21)), False, 2, 2),
         (2.0, 5001, 1, ((38, 4), (19, 21)), False, 2, 2)],
    ),
    "fig4b": (
        "Fig 4(b) GMM 3-way vary d_R1 (Movies-3way)", "d_R1",
        "paper: 3x to 14x, increasing with d_R1",
        [(5, 5001, 1, ((30, 5), (19, 21)), False, 2, 2),
         (15, 5001, 1, ((30, 15), (19, 21)), False, 2, 2),
         (30, 5001, 1, ((30, 30), (19, 21)), False, 2, 2)],
    ),
    "fig4c": (
        "Fig 4(c) GMM 3-way vary K (Movies-3way)", "K",
        "paper: 3x to 5x across K",
        [(2, 5001, 1, MOVIES, False, 2, 2),
         (4, 5001, 1, MOVIES, False, 4, 2)],
    ),
    "fig5a": (
        "Fig 5(a) NN vary rr (d_S=5, d_R=15, n_h=16)", "rr",
        "paper: >2x at d_R=5 rising to 3x at d_R=15; no benefit below "
        "rr≈200 (d_R=5) / rr≈50 (d_R=15)",
        [(10, 400, 5, BINARY, True, 16, 1),
         (30, 1200, 5, BINARY, True, 16, 1),
         (100, 4000, 5, BINARY, True, 16, 1)],
    ),
    "fig5b": (
        "Fig 5(b) NN vary d_R (d_S=5, rr=50, n_h=16)", "d_R",
        "paper: 2x to 3.5x, increasing with d_R",
        [(5, 2000, 5, ((40, 5),), True, 16, 1),
         (15, 2000, 5, ((40, 15),), True, 16, 1),
         (30, 2000, 5, ((40, 30),), True, 16, 1)],
    ),
    "fig5c": (
        "Fig 5(c) NN vary n_h (d_S=5, d_R=15, rr=50)", "n_h",
        "paper: 2x to 3x across n_h",
        [(10, 2000, 5, BINARY, True, 10, 1),
         (30, 2000, 5, BINARY, True, 30, 1)],
    ),
    "fig6a": (
        "Fig 6(a) NN 3-way vary rr (Movies-3way)", "rr(R1/R2)",
        "paper: 3x to 4x as rr grows",
        [(0.5, 5001, 1, ((10, 4), (19, 21)), True, 16, 1),
         (1.0, 5001, 1, ((19, 4), (19, 21)), True, 16, 1),
         (2.0, 5001, 1, ((38, 4), (19, 21)), True, 16, 1)],
    ),
    "fig6b": (
        "Fig 6(b) NN 3-way vary d_R1 (Movies-3way)", "d_R1",
        "paper: 3x (small rr) to 6x (large rr)",
        [(5, 5001, 1, ((30, 5), (19, 21)), True, 16, 1),
         (15, 5001, 1, ((30, 15), (19, 21)), True, 16, 1),
         (30, 5001, 1, ((30, 30), (19, 21)), True, 16, 1)],
    ),
    "fig6c": (
        "Fig 6(c) NN 3-way vary n_h (Movies-3way)", "n_h",
        "paper: up to 4x across n_h",
        [(10, 5001, 1, MOVIES, True, 10, 1),
         (30, 5001, 1, MOVIES, True, 30, 1)],
    ),
    "table6": (
        "Table VI GMM on simulated Hamlet datasets (scale=0.005)", "dataset",
        "paper: F-GMM up to 3.4x (binary) and 4.4x (3-way) faster",
        [("expedia1", 4711, 7, ((60, 8),), False, 2, 2),
         ("expedia2", 4711, 7, ((185, 14),), False, 2, 2),
         ("walmart", 2108, 3, ((12, 9),), False, 2, 2),
         ("movies", 5001, 1, ((19, 21),), False, 2, 2),
         ("expedia3", 3171, 7, ((14, 29),), False, 2, 2),
         ("expedia4", 3171, 7, ((14, 78),), False, 2, 2),
         ("expedia5", 3171, 7, ((14, 218),), False, 2, 2),
         ("movies-3way", 5001, 1, MOVIES, False, 2, 2)],
    ),
    "table7": (
        "Table VII NN on simulated sparse Hamlet datasets (scale=0.005)",
        "dataset",
        "paper: F-NN 8.1x (Walmart), 4.5x (Movies), 3.4x (3-way)",
        [("walmart_sparse", 2108, 126, ((12, 175),), True, 16, 1),
         ("movies_sparse", 5001, 1, ((19, 21),), True, 16, 1),
         ("movies-3way", 5001, 1, MOVIES, True, 16, 1)],
    ),
}


def _load_only(workloads):
    """A ``run_sweep`` that builds each point's workload and trains
    nothing; what it built goes into ``workloads``."""

    def run_sweep(experiment, x_label, points, kind):
        result = SweepResult(experiment=experiment, x_label=x_label)
        for x, loader, config in points:
            with Database() as db:
                join = loader(db).resolve(db)
                dims = tuple(
                    (dim.relation.nrows, dim.relation.schema.num_features)
                    for dim in join.dimensions
                )
                shape = (
                    join.fact.nrows, join.fact.schema.num_features, dims,
                    join.has_target,
                )
            if kind == "gmm":
                model = (config.n_components, config.max_iter)
            else:
                model = (config.hidden_sizes[0], config.epochs)
            workloads.append((x, *shape, *model))
            result.points.append(SweepPoint(x=x, seconds={}))
        return result

    return run_sweep


def test_the_table_names_every_panel():
    assert list(experiments.FIGURES) == list(EXPECTED)


@pytest.mark.parametrize("name", list(EXPECTED))
def test_each_panel_builds_the_papers_workload(name, monkeypatch):
    title, x_label, note, points = EXPECTED[name]
    workloads = []
    monkeypatch.setattr(experiments, "run_sweep", _load_only(workloads))
    result = experiments.run_figure(name, experiments.SCALES["tiny"])
    assert result.experiment == title
    assert result.x_label == x_label
    assert result.notes == [note]
    assert [p.x for p in result.points] == [p[0] for p in points]
    assert workloads == points


def test_the_default_scale_is_the_active_preset(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
    monkeypatch.setattr(experiments, "run_sweep", _load_only([]))
    result = experiments.run_figure("fig3a")
    assert result.experiment == EXPECTED["fig3a"][0]
