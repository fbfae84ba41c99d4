"""Table VI: GMM runtimes on the simulated Hamlet datasets."""

import pytest

from repro.bench.experiments import active_scale, table6
from repro.core.training import train
from repro.data.hamlet import load_hamlet
from repro.gmm.base import EMConfig
from repro.storage.catalog import Database

from benchmarks.conftest import emit_series


def test_table6_series(benchmark, results_dir):
    result = benchmark.pedantic(table6, rounds=1, iterations=1)
    emit_series(result, results_dir, "table6_gmm_real")
    # The augmented Expedia5 (d_R=218) is the paper's strongest GMM
    # case: the factorized strategy must win clearly there.
    if active_scale().name != "tiny":
        by_name = {p.x: p for p in result.points}
        assert by_name["expedia5"].best_baseline_speedup() > 1.5


@pytest.fixture(scope="module")
def expedia4_workload():
    scale = active_scale()
    db = Database()
    star = load_hamlet(db, "expedia4", scale=scale.hamlet_scale, seed=3)
    config = EMConfig(
        n_components=scale.n_components, max_iter=scale.em_iterations,
        tol=0.0, seed=1,
    )
    yield db, star.spec, config
    db.close()


@pytest.mark.parametrize("algorithm", ["M-GMM", "S-GMM", "F-GMM"])
def test_table6_micro_expedia4(benchmark, expedia4_workload, algorithm):
    db, spec, config = expedia4_workload
    benchmark.pedantic(
        train, args=(db, spec, "gmm", algorithm, config),
        rounds=2, iterations=1, warmup_rounds=0,
    )
