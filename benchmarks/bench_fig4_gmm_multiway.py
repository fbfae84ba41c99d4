"""Figure 4: GMM over multi-way joins (Movies-3way)."""

import pytest

from repro.bench.experiments import active_scale, figure4a, figure4b, figure4c
from repro.core.training import train
from repro.data.hamlet import load_movies_3way
from repro.gmm.base import EMConfig
from repro.storage.catalog import Database

from benchmarks.conftest import emit_series


class TestFig4Series:
    def test_fig4a_vary_rr(self, benchmark, results_dir):
        result = benchmark.pedantic(figure4a, rounds=1, iterations=1)
        emit_series(result, results_dir, "fig4a_gmm3way_vary_rr")
        assert len(result.points) == 3

    def test_fig4b_vary_dr1(self, benchmark, results_dir):
        result = benchmark.pedantic(figure4b, rounds=1, iterations=1)
        emit_series(result, results_dir, "fig4b_gmm3way_vary_dr1")
        if active_scale().name != "tiny":
            speedups = [
                p.best_baseline_speedup() for p in result.points
            ]
            assert speedups[-1] >= speedups[0] * 0.8

    def test_fig4c_vary_k(self, benchmark, results_dir):
        result = benchmark.pedantic(figure4c, rounds=1, iterations=1)
        emit_series(result, results_dir, "fig4c_gmm3way_vary_k")
        assert all(p.seconds for p in result.points)


@pytest.fixture(scope="module")
def reference_workload():
    scale = active_scale()
    db = Database()
    star = load_movies_3way(db, scale=scale.hamlet_scale, seed=3)
    config = EMConfig(
        n_components=scale.n_components, max_iter=scale.em_iterations,
        tol=0.0, seed=1,
    )
    yield db, star.spec, config
    db.close()


@pytest.mark.parametrize("algorithm", ["M-GMM", "S-GMM", "F-GMM"])
def test_fig4_micro(benchmark, reference_workload, algorithm):
    db, spec, config = reference_workload
    benchmark.pedantic(
        train, args=(db, spec, "gmm", algorithm, config),
        rounds=2, iterations=1, warmup_rounds=0,
    )
