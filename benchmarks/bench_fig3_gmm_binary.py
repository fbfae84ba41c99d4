"""Figure 3: GMM over binary joins — vary rr, d_R, and K.

Regenerates the three panels of Fig. 3 (Section VII-C1) and
micro-benchmarks the three strategies on the panel's reference
workload.
"""

import pytest

from repro.bench.experiments import active_scale, figure3a, figure3b, figure3c
from repro.core.training import train
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.gmm.base import EMConfig
from repro.storage.catalog import Database

from benchmarks.conftest import emit_series


class TestFig3Series:
    def test_fig3a_vary_rr(self, benchmark, results_dir):
        result = benchmark.pedantic(
            figure3a, rounds=1, iterations=1
        )
        emit_series(result, results_dir, "fig3a_gmm_vary_rr")
        # Shape check: the factorized advantage grows with rr.  Timing
        # assertions only make sense above the jitter-dominated tiny
        # preset.
        if active_scale().name != "tiny":
            speedups = [p.best_baseline_speedup() for p in result.points]
            assert speedups[-1] >= speedups[0] * 0.8

    def test_fig3b_vary_dr(self, benchmark, results_dir):
        result = benchmark.pedantic(
            figure3b, rounds=1, iterations=1
        )
        emit_series(result, results_dir, "fig3b_gmm_vary_dr")
        speedups = [p.best_baseline_speedup() for p in result.points]
        # Monotone-ish growth with d_R; the final point clearly wins
        # once workloads are big enough for redundancy to dominate.
        if active_scale().name != "tiny":
            assert speedups[-1] > 1.2
            assert speedups[-1] >= speedups[0]

    def test_fig3c_vary_k(self, benchmark, results_dir):
        result = benchmark.pedantic(
            figure3c, rounds=1, iterations=1
        )
        emit_series(result, results_dir, "fig3c_gmm_vary_k")
        assert all(p.seconds for p in result.points)


@pytest.fixture(scope="module")
def reference_workload():
    """Fig. 3's reference point: d_S=5, d_R=15, K fixed."""
    scale = active_scale()
    db = Database()
    star = generate_star(
        db,
        StarSchemaConfig.binary(
            n_s=scale.n_r * scale.rr_fixed, n_r=scale.n_r,
            d_s=5, d_r=15, seed=3,
        ),
    )
    config = EMConfig(
        n_components=scale.n_components, max_iter=scale.em_iterations,
        tol=0.0, seed=1,
    )
    yield db, star.spec, config
    db.close()


@pytest.mark.parametrize("algorithm", ["M-GMM", "S-GMM", "F-GMM"])
def test_fig3_micro(benchmark, reference_workload, algorithm):
    db, spec, config = reference_workload
    benchmark.pedantic(
        train, args=(db, spec, "gmm", algorithm, config),
        rounds=2, iterations=1, warmup_rounds=0,
    )
