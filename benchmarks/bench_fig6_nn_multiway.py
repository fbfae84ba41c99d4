"""Figure 6: NN over multi-way joins (Movies-3way)."""

import pytest

from repro.bench.experiments import active_scale, figure6a, figure6b, figure6c
from repro.core.training import train
from repro.data.hamlet import load_movies_3way
from repro.nn.base import NNConfig
from repro.storage.catalog import Database

from benchmarks.conftest import emit_series


class TestFig6Series:
    def test_fig6a_vary_rr(self, benchmark, results_dir):
        result = benchmark.pedantic(figure6a, rounds=1, iterations=1)
        emit_series(result, results_dir, "fig6a_nn3way_vary_rr")
        assert len(result.points) == 3

    def test_fig6b_vary_dr1(self, benchmark, results_dir):
        result = benchmark.pedantic(figure6b, rounds=1, iterations=1)
        # Sub-second points; timing thresholds would assert on host
        # jitter (see fig5 note) — structural checks only.
        emit_series(result, results_dir, "fig6b_nn3way_vary_dr1")
        assert all(
            t > 0 for p in result.points for t in p.seconds.values()
        )

    def test_fig6c_vary_nh(self, benchmark, results_dir):
        result = benchmark.pedantic(figure6c, rounds=1, iterations=1)
        emit_series(result, results_dir, "fig6c_nn3way_vary_nh")
        assert all(p.seconds for p in result.points)


@pytest.fixture(scope="module")
def reference_workload():
    scale = active_scale()
    db = Database()
    star = load_movies_3way(
        db, scale=scale.hamlet_scale, with_target=True, seed=3
    )
    config = NNConfig(
        hidden_sizes=(scale.hidden_units,), epochs=scale.nn_epochs,
        learning_rate=0.01, seed=1,
    )
    yield db, star.spec, config
    db.close()


@pytest.mark.parametrize("algorithm", ["M-NN", "S-NN", "F-NN"])
def test_fig6_micro(benchmark, reference_workload, algorithm):
    db, spec, config = reference_workload
    benchmark.pedantic(
        train, args=(db, spec, "nn", algorithm, config),
        rounds=2, iterations=1, warmup_rounds=0,
    )
