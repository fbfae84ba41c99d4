"""EM behaviour: monotone likelihood, convergence, recovery."""

import warnings

import numpy as np
import pytest

from repro.core.training import train
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.errors import ConvergenceWarning, ModelError
from repro.gmm.base import EMConfig
from repro.gmm.model import GaussianMixtureModel


@pytest.fixture
def star(db):
    config = StarSchemaConfig.binary(
        n_s=800, n_r=40, d_s=2, d_r=3, n_clusters=3, seed=21
    )
    return generate_star(db, config)


class TestLogLikelihood:
    def test_monotone_nondecreasing(self, db, star):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train(db, star.spec, "gmm", "F", EMConfig(
                    n_components=3, max_iter=8, tol=0.0, seed=1
                )
            )
        history = result.log_likelihood_history
        assert len(history) == 8
        for before, after in zip(history, history[1:]):
            assert after >= before - 1e-6 * abs(before)

    def test_convergence_flag_set(self, db, star):
        result = train(db, star.spec, "gmm", "F", EMConfig(n_components=2, max_iter=100, tol=1e-3, seed=1),
        )
        assert result.converged
        assert result.n_iter < 100

    def test_non_convergence_warns(self, db, star):
        with pytest.warns(ConvergenceWarning):
            result = train(db, star.spec, "gmm", "F", EMConfig(n_components=3, max_iter=2, tol=1e-12, seed=1),
            )
        assert not result.converged

    def test_tol_zero_runs_all_iterations(self, db, star):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train(db, star.spec, "gmm", "S", EMConfig(n_components=2, max_iter=5, tol=0.0, seed=1),
            )
        assert result.n_iter == 5


class TestModelQuality:
    def test_fitted_model_beats_init(self, db, star):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train(db, star.spec, "gmm", "F", EMConfig(n_components=3, max_iter=10, tol=0.0, seed=1),
            )
        history = result.log_likelihood_history
        assert history[-1] > history[0]

    def test_weights_remain_normalized(self, db, star):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train(db, star.spec, "gmm", "F", EMConfig(n_components=4, max_iter=5, tol=0.0, seed=2),
            )
        assert result.params.weights.sum() == pytest.approx(1.0)
        assert (result.params.weights > 0).all()

    def test_covariances_positive_definite(self, db, star):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train(db, star.spec, "gmm", "F", EMConfig(n_components=3, max_iter=5, tol=0.0, seed=1),
            )
        for cov in result.params.covariances:
            eigenvalues = np.linalg.eigvalsh(cov)
            assert eigenvalues.min() > -1e-10

    def test_separated_mixture_recovered(self, db):
        """Three far-apart blobs must be found almost exactly."""
        from repro.storage.schema import (
            Schema, features, foreign_key, key,
        )

        rng = np.random.default_rng(5)
        n_r, n_s = 30, 1200
        # R features near zero: the structure lives in S's features.
        r_rows = np.column_stack(
            [np.arange(n_r, dtype=np.float64),
             rng.normal(scale=0.1, size=(n_r, 1))]
        )
        db.create_relation(
            "Rq", Schema([key("rid"), *features("a", 1)]), r_rows
        )
        centers = np.array([[-20.0, 0.0], [0.0, 20.0], [20.0, -20.0]])
        assignment = rng.integers(0, 3, size=n_s)
        s_feats = centers[assignment] + rng.normal(size=(n_s, 2))
        s_rows = np.column_stack(
            [
                np.arange(n_s, dtype=np.float64),
                s_feats,
                rng.integers(0, n_r, size=n_s).astype(np.float64),
            ]
        )
        db.create_relation(
            "Sq",
            Schema(
                [key("sid"), *features("x", 2), foreign_key("fk", "Rq")]
            ),
            s_rows,
        )
        from repro.join.spec import JoinSpec

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train(
                db,
                JoinSpec.binary("Sq", "Rq"),
                "gmm",
                "F",
                # seed=1: EM is only locally optimal and seed 0 merges
                # two blobs; any seed recovering the optimum serves the
                # purpose of this test (the optimum is seed-stable 1-3).
                EMConfig(n_components=3, max_iter=30, tol=1e-6, seed=1),
            )
        model = GaussianMixtureModel(result.params)
        # Each true center must be near some learned mean (in x-space).
        learned = result.params.means[:, :2]
        for center in centers:
            distances = np.linalg.norm(learned - center, axis=1)
            assert distances.min() < 1.0
        # Hard assignments should agree with the generating labels.
        joined = np.column_stack(
            [s_feats, r_rows[s_rows[:, 3].astype(int), 1]]
        )
        predicted = model.predict(joined)
        # Cluster labels are permuted; check pairwise consistency.
        same_true = assignment[:200, None] == assignment[None, :200]
        same_predicted = predicted[:200, None] == predicted[None, :200]
        agreement = (same_true == same_predicted).mean()
        assert agreement > 0.98


class TestConfigValidation:
    def test_bad_components(self):
        with pytest.raises(ModelError):
            EMConfig(n_components=0)

    def test_bad_max_iter(self):
        with pytest.raises(ModelError):
            EMConfig(max_iter=0)

    def test_bad_tol(self):
        with pytest.raises(ModelError):
            EMConfig(tol=-1.0)

    def test_mismatched_initial_params(self, db, star):
        from repro.gmm.init import initial_params

        wrong = initial_params(
            np.random.default_rng(0).normal(size=(50, 9)), 2
        )
        with pytest.raises(ModelError, match="features"):
            train(db, star.spec, "gmm", "S", EMConfig(n_components=2, max_iter=2, tol=0.0),
                start=wrong,
            )
