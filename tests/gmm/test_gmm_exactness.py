"""The paper's central claim: M-GMM, S-GMM and F-GMM are exactly the
same model — identical responsibilities, parameters, and likelihood
traces at every iteration, for binary and multi-way joins.  M- and S-
batches have every dimension inlined, and on them the one engine's step
*is* ``em_step`` over the wide rows."""

import warnings

import numpy as np
import pytest

from repro.core.strategies import resolve_strategy
from repro.core.training import open_access, train
from repro.data.synthetic import (
    DimensionSpec,
    StarSchemaConfig,
    generate_star,
)
from repro.gmm.base import EMConfig, run_em
from repro.gmm.engines import FactorizedEMEngine
from repro.gmm.init import initial_params
from repro.gmm.model import ComponentPrecisions, em_step, posteriors
from repro.join.factorized import FactorizedJoin
from repro.join.stream import StreamingJoin
from repro.linalg.design import FactorizedDesign

BINARY = StarSchemaConfig.binary(n_s=600, n_r=30, d_s=3, d_r=5, seed=13)
THREE_WAY = StarSchemaConfig(
    n_s=500,
    d_s=2,
    dimensions=(DimensionSpec(12, 3), DimensionSpec(8, 4)),
    seed=29,
)


@pytest.fixture(autouse=True)
def _silence_convergence_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture
def em_config():
    return EMConfig(n_components=3, max_iter=4, tol=0.0, seed=2)


@pytest.fixture(params=[BINARY, THREE_WAY], ids=["binary", "3-way"])
def any_star(request, db):
    return generate_star(db, request.param)


def wide(batch) -> FactorizedDesign:
    """The batch's wide rows as a design of their own."""
    return FactorizedDesign(batch.design.fact_block, [], [])


class DenseStep(FactorizedEMEngine):
    """The reference step: ``em_step`` over the wide rows."""

    def step_batch(self, batch, params, precisions, centre):
        return em_step(wide(batch), params, precisions, centre)


@pytest.mark.parametrize("strategy", ["M", "S"])
class TestInlinedBatchesTakeTheDenseStep:
    @pytest.mark.parametrize(
        "shuffle", [False, True], ids=["ordered", "shuffled"]
    )
    def test_per_batch(self, db, any_star, strategy, shuffle):
        d = any_star.spec.resolve(db).total_features
        with open_access(
            db, any_star.spec, resolve_strategy(strategy), 2,
            shuffle=shuffle, seed=5, table_name="T_ref",
        ) as access:
            engine = FactorizedEMEngine(access, d)
            params = initial_params(engine.init_sample(500), 3, seed=0)
            precisions = ComponentPrecisions(params.covariances, 1e-6)
            for centre in (params.means, params.means + 0.5):
                for batch in engine.batches(0):
                    assert batch.design.num_dimensions == 0
                    got = engine.step_batch(batch, params, precisions, centre)
                    want = em_step(wide(batch), params, precisions, centre)
                    for mine, theirs in zip(got, want):
                        np.testing.assert_array_equal(mine, theirs)
                    for mine, theirs in zip(
                        engine.estep_batch(batch, params, precisions),
                        posteriors(wide(batch), params, precisions),
                    ):
                        np.testing.assert_array_equal(mine, theirs)

    def test_per_fit(self, db, any_star, em_config, strategy):
        fit = train(db, any_star.spec, "gmm", strategy, em_config)
        d = any_star.spec.resolve(db).total_features
        with open_access(
            db, any_star.spec, resolve_strategy(strategy),
            table_name="T_ref",
        ) as access:
            want = run_em(DenseStep(access, d), em_config, algorithm="dense")
        for name in ("weights", "means", "covariances"):
            np.testing.assert_array_equal(
                getattr(fit.params, name), getattr(want.params, name)
            )
        np.testing.assert_array_equal(
            fit.log_likelihood_history, want.log_likelihood_history
        )


class TestBinaryExactness:
    @pytest.fixture
    def star(self, db):
        return generate_star(db, BINARY)

    def test_all_three_strategies_identical(self, db, star, em_config):
        m = train(db, star.spec, "gmm", "M", em_config, block_pages=2)
        s = train(db, star.spec, "gmm", "S", em_config, block_pages=2)
        f = train(db, star.spec, "gmm", "F", em_config, block_pages=2)
        assert m.params.allclose(s.params)
        assert s.params.allclose(f.params)
        np.testing.assert_allclose(
            m.log_likelihood_history, s.log_likelihood_history, rtol=1e-9
        )
        np.testing.assert_allclose(
            s.log_likelihood_history, f.log_likelihood_history, rtol=1e-9
        )

    def test_block_size_does_not_change_model(self, db, star, em_config):
        f_small = train(db, star.spec, "gmm", "F", em_config, block_pages=1)
        f_large = train(db, star.spec, "gmm", "F", em_config, block_pages=64)
        assert f_small.params.allclose(f_large.params)

    def test_per_batch_estep_identical(self, db, star, em_config):
        """γ agrees batch-for-batch between dense and factorized."""
        stream = StreamingJoin(db, star.spec, block_pages=2)
        fact = FactorizedJoin(db, star.spec, block_pages=2)
        engine = FactorizedEMEngine(stream, 8)
        params = initial_params(engine.init_sample(500), 3, seed=0)
        precisions = ComponentPrecisions(params.covariances, 1e-6)
        for dense_batch, fact_batch in zip(
            stream.batches(), fact.batches()
        ):
            gamma_dense, ll_dense = engine.estep_batch(
                dense_batch, params, precisions
            )
            gamma_fact, ll_fact = engine.estep_batch(
                fact_batch, params, precisions
            )
            np.testing.assert_allclose(
                gamma_dense, gamma_fact, rtol=1e-8, atol=1e-12
            )
            np.testing.assert_allclose(ll_dense, ll_fact, rtol=1e-8)


class TestMultiwayExactness:
    @pytest.fixture
    def star(self, db):
        return generate_star(db, THREE_WAY)

    def test_three_way_strategies_identical(self, db, star, em_config):
        m = train(db, star.spec, "gmm", "M", em_config, block_pages=4)
        s = train(db, star.spec, "gmm", "S", em_config, block_pages=4)
        f = train(db, star.spec, "gmm", "F", em_config, block_pages=4)
        assert m.params.allclose(s.params)
        assert s.params.allclose(f.params)

    def test_four_way_strategies_identical(self, db, em_config):
        config = StarSchemaConfig(
            n_s=300,
            d_s=2,
            dimensions=(
                DimensionSpec(6, 2),
                DimensionSpec(5, 3),
                DimensionSpec(4, 2),
            ),
            seed=31,
        )
        star = generate_star(db, config)
        s = train(db, star.spec, "gmm", "S", em_config)
        f = train(db, star.spec, "gmm", "F", em_config)
        assert s.params.allclose(f.params)


class TestResultMetadata:
    def test_algorithm_labels(self, db, em_config):
        star = generate_star(
            db, StarSchemaConfig.binary(n_s=200, n_r=10, d_s=2, d_r=2,
                                        seed=3)
        )
        assert train(db, star.spec, "gmm", "M", em_config).algorithm == "M-GMM"
        assert train(db, star.spec, "gmm", "S", em_config).algorithm == "S-GMM"
        assert train(db, star.spec, "gmm", "F", em_config).algorithm == "F-GMM"

    def test_m_gmm_reports_materialization(self, db, em_config):
        star = generate_star(
            db, StarSchemaConfig.binary(n_s=200, n_r=10, d_s=2, d_r=2,
                                        seed=3)
        )
        result = train(db, star.spec, "gmm", "M", em_config)
        assert result.extra["materialize_seconds"] >= 0
        assert result.extra["table_pages"] > 0
        assert result.io.pages_written >= result.extra["table_pages"]

    def test_m_gmm_drops_temp_table(self, db, em_config):
        star = generate_star(
            db, StarSchemaConfig.binary(n_s=200, n_r=10, d_s=2, d_r=2,
                                        seed=3)
        )
        train(db, star.spec, "gmm", "M", em_config)
        assert all(
            not name.startswith("_T_") for name in db.relation_names
        )

    def test_streaming_does_not_write(self, db, em_config):
        star = generate_star(
            db, StarSchemaConfig.binary(n_s=200, n_r=10, d_s=2, d_r=2,
                                        seed=3)
        )
        for strategy in ("S", "F"):
            result = train(db, star.spec, "gmm", strategy, em_config)
            assert result.io.pages_written == 0

    def test_initial_params_respected(self, db, em_config):
        star = generate_star(
            db, StarSchemaConfig.binary(n_s=200, n_r=10, d_s=2, d_r=2,
                                        seed=3)
        )
        sample = np.random.default_rng(0).normal(size=(50, 4))
        init = initial_params(sample, 3, seed=0)
        s = train(db, star.spec, "gmm", "S", em_config, start=init)
        f = train(db, star.spec, "gmm", "F", em_config, start=init)
        assert s.params.allclose(f.params)
