"""End-to-end integration: generated data → joins → training → models
that actually learn, across execution strategies and join arities."""

import warnings

import numpy as np
import pytest

import repro
from repro.core.api import FACTORIZED


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


class TestGMMPipeline:
    def test_cluster_recovery_through_public_api(self, tmp_path):
        """The generator plants mixture structure; F-GMM must find a
        model that out-scores a single-Gaussian fit."""
        with repro.Database(tmp_path / "db") as db:
            star = repro.generate_star(
                db,
                repro.StarSchemaConfig.binary(
                    n_s=2000, n_r=50, d_s=3, d_r=4, n_clusters=3,
                    cluster_spread=6.0, seed=2,
                ),
            )
            multi = repro.fit_gmm(
                db, star.spec, n_components=3, max_iter=15, tol=1e-5,
                seed=1,
            )
            single = repro.fit_gmm(
                db, star.spec, n_components=1, max_iter=15, tol=1e-5,
                seed=1,
            )
            assert (
                multi.log_likelihood_history[-1]
                > single.log_likelihood_history[-1]
            )

    def test_model_scores_joined_data(self, tmp_path):
        with repro.Database(tmp_path / "db") as db:
            star = repro.generate_star(
                db,
                repro.StarSchemaConfig.binary(
                    n_s=500, n_r=20, d_s=2, d_r=3, seed=3
                ),
            )
            result = repro.fit_gmm(
                db, star.spec, n_components=2, max_iter=5, tol=0.0,
                seed=1,
            )
            from repro.join.reference import nested_loop_join

            joined = nested_loop_join(db, star.spec)
            scores = result.model.score_samples(joined.design.fact_block)
            assert scores.shape == (500,)
            assert np.isfinite(scores).all()

    def test_hamlet_dataset_through_pipeline(self, tmp_path):
        with repro.Database(tmp_path / "db") as db:
            star = repro.load_hamlet(db, "walmart", scale=0.01, seed=1)
            result = repro.fit_gmm(
                db, star.spec, n_components=2, max_iter=3, tol=0.0,
                algorithm="streaming", seed=1,
            )
            assert result.fit.n_iter == 3


class TestNNPipeline:
    def test_network_learns_join_dependent_signal(self, tmp_path):
        """The target depends on dimension features, so the trained
        network must beat the best constant predictor."""
        with repro.Database(tmp_path / "db") as db:
            star = repro.generate_star(
                db,
                repro.StarSchemaConfig.binary(
                    n_s=3000, n_r=60, d_s=3, d_r=5, with_target=True,
                    noise=0.01, seed=5,
                ),
            )
            result = repro.fit_nn(
                db, star.spec, hidden_sizes=(50,), epochs=60,
                learning_rate=0.1, seed=2,
            )
            from repro.join.reference import nested_loop_join

            joined = nested_loop_join(db, star.spec)
            predictions = result.predict(joined.design.fact_block).ravel()
            residual = np.mean((predictions - joined.targets) ** 2)
            constant_baseline = joined.targets.var()
            assert residual < 0.85 * constant_baseline

    def test_multiway_pipeline(self, tmp_path):
        with repro.Database(tmp_path / "db") as db:
            star = repro.load_movies_3way(
                db, scale=0.01, with_target=True, seed=4
            )
            result = repro.fit_nn(
                db, star.spec, hidden_sizes=(10,), epochs=3,
                learning_rate=0.05, seed=1,
            )
            assert len(result.loss_history) == 3
            assert np.isfinite(result.loss_history).all()

    def test_relu_and_tanh_networks_train(self, tmp_path):
        with repro.Database(tmp_path / "db") as db:
            star = repro.generate_star(
                db,
                repro.StarSchemaConfig.binary(
                    n_s=800, n_r=20, d_s=2, d_r=3, with_target=True,
                    seed=6,
                ),
            )
            for activation in ("relu", "tanh"):
                result = repro.fit_nn(
                    db, star.spec, hidden_sizes=(12,), epochs=10,
                    activation=activation, learning_rate=0.1, seed=3,
                )
                assert result.loss_history[-1] < result.loss_history[0]


class TestCrossStrategyConsistency:
    def test_gmm_strategies_identical_on_hamlet(self, tmp_path):
        with repro.Database(tmp_path / "db") as db:
            star = repro.load_hamlet(db, "movies", scale=0.005, seed=1)
            config = repro.EMConfig(
                n_components=2, max_iter=3, tol=0.0, seed=1
            )
            comparison = repro.compare_strategies(
                db, star.spec, "gmm", config
            )
            results = list(comparison.results.values())
            assert results[0].params.allclose(results[1].params)
            assert results[1].params.allclose(results[2].params)

    def test_factorized_io_strictly_below_materialized(self, tmp_path):
        """F never writes and reads less than M for multi-pass
        training (the storage claim of Section I)."""
        with repro.Database(tmp_path / "db") as db:
            star = repro.generate_star(
                db,
                repro.StarSchemaConfig.binary(
                    n_s=2000, n_r=40, d_s=3, d_r=10, seed=7
                ),
            )
            config = repro.EMConfig(
                n_components=2, max_iter=4, tol=0.0, seed=1
            )
            comparison = repro.compare_strategies(
                db, star.spec, "gmm", config
            )
            from repro.core.api import MATERIALIZED

            m_io = comparison.results[MATERIALIZED].io
            f_io = comparison.results[FACTORIZED].io
            assert f_io.pages_written == 0
            assert m_io.pages_written > 0
            assert f_io.total_pages < m_io.total_pages

    def test_database_state_clean_after_comparisons(self, tmp_path):
        with repro.Database(tmp_path / "db") as db:
            star = repro.generate_star(
                db,
                repro.StarSchemaConfig.binary(
                    n_s=300, n_r=10, d_s=2, d_r=2, seed=8
                ),
            )
            before = set(db.relation_names)
            config = repro.EMConfig(
                n_components=2, max_iter=2, tol=0.0, seed=1
            )
            repro.compare_strategies(db, star.spec, "gmm", config)
            assert set(db.relation_names) == before
