"""The paper's central claim: M-GMM, S-GMM and F-GMM are exactly the
same model — identical responsibilities, parameters, and likelihood
traces at every iteration, for binary and multi-way joins."""

import warnings

import numpy as np
import pytest

from repro.core.training import train
from repro.data.synthetic import (
    DimensionSpec,
    StarSchemaConfig,
    generate_star,
)
from repro.gmm.base import EMConfig
from repro.gmm.engines import DenseEMEngine, FactorizedEMEngine
from repro.gmm.model import ComponentPrecisions
from repro.join.factorized import FactorizedJoin
from repro.join.stream import StreamingJoin


@pytest.fixture(autouse=True)
def _silence_convergence_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture
def em_config():
    return EMConfig(n_components=3, max_iter=4, tol=0.0, seed=2)


class TestBinaryExactness:
    @pytest.fixture
    def star(self, db):
        config = StarSchemaConfig.binary(
            n_s=600, n_r=30, d_s=3, d_r=5, seed=13
        )
        return generate_star(db, config)

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
        dense_engine = DenseEMEngine(stream, 8)
        fact_engine = FactorizedEMEngine(fact, 8)
        from repro.gmm.init import initial_params

        params = initial_params(
            dense_engine.init_sample(500), 3, seed=0
        )
        precisions = ComponentPrecisions(params.covariances, 1e-6)
        for dense_batch, fact_batch in zip(
            dense_engine.batches(0), fact_engine.batches(0)
        ):
            gamma_dense, ll_dense = dense_engine.estep_batch(
                dense_batch, params, precisions
            )
            gamma_fact, ll_fact = fact_engine.estep_batch(
                fact_batch, params, precisions
            )
            np.testing.assert_allclose(
                gamma_dense, gamma_fact, rtol=1e-8, atol=1e-12
            )
            np.testing.assert_allclose(ll_dense, ll_fact, rtol=1e-8)


class TestMultiwayExactness:
    @pytest.fixture
    def star(self, db):
        config = StarSchemaConfig(
            n_s=500,
            d_s=2,
            dimensions=(DimensionSpec(12, 3), DimensionSpec(8, 4)),
            seed=29,
        )
        return generate_star(db, config)

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
        from repro.gmm.init import initial_params

        star = generate_star(
            db, StarSchemaConfig.binary(n_s=200, n_r=10, d_s=2, d_r=2,
                                        seed=3)
        )
        sample = np.random.default_rng(0).normal(size=(50, 4))
        init = initial_params(sample, 3, seed=0)
        s = train(db, star.spec, "gmm", "S", em_config, start=init)
        f = train(db, star.spec, "gmm", "F", em_config, start=init)
        assert s.params.allclose(f.params)
