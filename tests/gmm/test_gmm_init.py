"""Deterministic GMM initialization."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.gmm.init import initial_params, kmeans_plusplus_centers


class TestKMeansPlusPlus:
    def test_centers_come_from_data(self, rng):
        data = rng.normal(size=(50, 3))
        centers = kmeans_plusplus_centers(
            data, 4, np.random.default_rng(0)
        )
        for center in centers:
            assert any(
                np.allclose(center, row) for row in data
            ), "center must be a data point"

    def test_too_few_samples(self, rng):
        with pytest.raises(ModelError):
            kmeans_plusplus_centers(
                rng.normal(size=(2, 3)), 5, np.random.default_rng(0)
            )

    def test_spreads_over_clusters(self, rng):
        # Two well-separated blobs: k-means++ should pick one from each.
        a = rng.normal(size=(30, 2))
        b = rng.normal(size=(30, 2)) + 100
        data = np.vstack([a, b])
        centers = kmeans_plusplus_centers(
            data, 2, np.random.default_rng(1)
        )
        sides = centers[:, 0] > 50
        assert sides[0] != sides[1]

    def test_degenerate_identical_points(self):
        data = np.ones((10, 2))
        centers = kmeans_plusplus_centers(
            data, 3, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(centers, np.ones((3, 2)))


class TestInitialParams:
    def test_deterministic_for_seed(self, rng):
        sample = rng.normal(size=(100, 4))
        a = initial_params(sample, 3, seed=9)
        b = initial_params(sample, 3, seed=9)
        assert a.allclose(b)

    def test_seed_changes_init(self, rng):
        sample = rng.normal(size=(100, 4))
        a = initial_params(sample, 3, seed=1)
        b = initial_params(sample, 3, seed=2)
        assert not np.allclose(a.means, b.means)

    def test_uniform_weights(self, rng):
        params = initial_params(rng.normal(size=(50, 2)), 4, seed=0)
        np.testing.assert_allclose(params.weights, 0.25)

    def test_shared_diagonal_covariance(self, rng):
        sample = rng.normal(size=(200, 3)) * np.array([1.0, 2.0, 3.0])
        params = initial_params(sample, 2, seed=0)
        np.testing.assert_allclose(
            params.covariances[0], params.covariances[1]
        )
        off_diagonal = params.covariances[0] - np.diag(
            np.diag(params.covariances[0])
        )
        np.testing.assert_array_equal(off_diagonal, 0)
        np.testing.assert_allclose(
            np.diag(params.covariances[0]),
            sample.var(axis=0),
            rtol=1e-10,
        )

    def test_invalid_component_count(self, rng):
        with pytest.raises(ModelError):
            initial_params(rng.normal(size=(10, 2)), 0)

    def test_variance_floor(self):
        sample = np.zeros((10, 2))
        params = initial_params(sample, 2, reg_covar=1e-4)
        assert (np.diag(params.covariances[0]) >= 1e-4).all()
