"""Figure 5: NN over binary joins — vary rr, d_R, and n_h."""

import pytest

from repro.bench.experiments import active_scale, figure5a, figure5b, figure5c
from repro.core.training import train
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.nn.base import NNConfig
from repro.storage.catalog import Database

from benchmarks.conftest import emit_series


class TestFig5Series:
    def test_fig5a_vary_rr(self, benchmark, results_dir):
        result = benchmark.pedantic(figure5a, rounds=1, iterations=1)
        # NN sweep points run in fractions of a second, where host
        # jitter on shared machines reaches ±50%; the series table is
        # the deliverable (see EXPERIMENTS.md for interpretation), so
        # no hard timing thresholds here — only structural checks.
        emit_series(result, results_dir, "fig5a_nn_vary_rr")
        assert len(result.points) == len(active_scale().rr_values)
        assert all(
            t > 0 for p in result.points for t in p.seconds.values()
        )

    def test_fig5b_vary_dr(self, benchmark, results_dir):
        result = benchmark.pedantic(figure5b, rounds=1, iterations=1)
        emit_series(result, results_dir, "fig5b_nn_vary_dr")
        assert len(result.points) == len(active_scale().dr_values)
        assert all(
            t > 0 for p in result.points for t in p.seconds.values()
        )

    def test_fig5c_vary_nh(self, benchmark, results_dir):
        result = benchmark.pedantic(figure5c, rounds=1, iterations=1)
        emit_series(result, results_dir, "fig5c_nn_vary_nh")
        assert all(p.seconds for p in result.points)


@pytest.fixture(scope="module")
def reference_workload():
    scale = active_scale()
    db = Database()
    star = generate_star(
        db,
        StarSchemaConfig.binary(
            n_s=scale.n_r * scale.rr_fixed, n_r=scale.n_r,
            d_s=5, d_r=15, with_target=True, seed=3,
        ),
    )
    config = NNConfig(
        hidden_sizes=(scale.hidden_units,), epochs=scale.nn_epochs,
        learning_rate=0.01, seed=1,
    )
    yield db, star.spec, config
    db.close()


@pytest.mark.parametrize("algorithm", ["M-NN", "S-NN", "F-NN"])
def test_fig5_micro(benchmark, reference_workload, algorithm):
    db, spec, config = reference_workload
    benchmark.pedantic(
        train, args=(db, spec, "nn", algorithm, config),
        rounds=2, iterations=1, warmup_rounds=0,
    )
