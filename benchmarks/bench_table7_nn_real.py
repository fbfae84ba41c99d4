"""Table VII: NN runtimes on the simulated sparse Hamlet datasets."""

import pytest

from repro.bench.experiments import TABLE7_DATASETS, active_scale, table7
from repro.core.training import train
from repro.data.hamlet import load_hamlet
from repro.nn.base import NNConfig
from repro.storage.catalog import Database

from benchmarks.conftest import emit_series


def test_table7_series(benchmark, results_dir):
    result = benchmark.pedantic(table7, rounds=1, iterations=1)
    emit_series(result, results_dir, "table7_nn_real")
    # Walmart(Sparse) — d_S=126, d_R=175 — is the paper's strongest NN
    # case (8.1x there).  Our storage engine reads binary pages orders
    # of magnitude faster than the paper's psycopg2 path, which shrinks
    # the I/O-driven share of the gap, and at sub-second runtimes host
    # jitter swamps hard thresholds (see EXPERIMENTS.md) — record the
    # series, check structure.
    by_name = {p.x: p for p in result.points}
    assert set(by_name) == set(TABLE7_DATASETS) | {"movies-3way"}
    assert all(
        t > 0 for p in result.points for t in p.seconds.values()
    )


@pytest.fixture(scope="module")
def walmart_sparse_workload():
    scale = active_scale()
    db = Database()
    star = load_hamlet(
        db, "walmart_sparse", scale=scale.hamlet_scale, seed=3
    )
    config = NNConfig(
        hidden_sizes=(scale.hidden_units,), epochs=scale.nn_epochs,
        learning_rate=0.01, seed=1,
    )
    yield db, star.spec, config
    db.close()


@pytest.mark.parametrize("algorithm", ["M-NN", "S-NN", "F-NN"])
def test_table7_micro_walmart(
    benchmark, walmart_sparse_workload, algorithm
):
    db, spec, config = walmart_sparse_workload
    benchmark.pedantic(
        train, args=(db, spec, "nn", algorithm, config),
        rounds=2, iterations=1, warmup_rounds=0,
    )
