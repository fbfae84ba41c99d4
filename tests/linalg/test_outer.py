"""Exactness of factorized weighted sums/outer products (Eq. 13–18, 22–24):
the stacked kernels (``gmm.model.mu_sums`` / ``sigma_sums``) at ``K = 1``,
one ``(n, 1)`` weight column, against the dense references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.gmm.model import mu_sums, sigma_sums
from repro.linalg.design import FactorizedDesign
from repro.linalg.groupsum import GroupIndex
from repro.linalg.outer import dense_weighted_outer, dense_weighted_sum


def random_design(rng, n, d_s, dims):
    fact = rng.normal(size=(n, d_s))
    blocks = [rng.normal(size=(m, d)) for m, d in dims]
    groups = [GroupIndex(rng.integers(0, m, size=n), m) for m, _ in dims]
    return FactorizedDesign(fact, blocks, groups)


class TestDenseReferences:
    def test_weighted_sum(self, rng):
        rows = rng.normal(size=(12, 3))
        weights = rng.uniform(size=12)
        np.testing.assert_allclose(
            dense_weighted_sum(rows, weights),
            sum(w * r for w, r in zip(weights, rows)),
        )

    def test_weighted_outer(self, rng):
        centered = rng.normal(size=(9, 4))
        weights = rng.uniform(size=9)
        expected = sum(
            w * np.outer(row, row)
            for w, row in zip(weights, centered)
        )
        np.testing.assert_allclose(
            dense_weighted_outer(centered, weights), expected
        )

    def test_shape_mismatch(self, rng):
        with pytest.raises(ModelError):
            dense_weighted_sum(rng.normal(size=(4, 2)), np.ones(3))
        with pytest.raises(ModelError):
            dense_weighted_outer(rng.normal(size=(4, 2)), np.ones(3))


class TestFactorizedSum:
    def test_binary_matches_dense(self, rng):
        design = random_design(rng, 50, 3, [(6, 4)])
        weights = rng.uniform(0.1, 1.0, size=50)
        np.testing.assert_allclose(
            mu_sums(design, weights[:, None])[0],
            dense_weighted_sum(design.densify(), weights),
            rtol=1e-10,
        )

    def test_multiway_matches_dense(self, rng):
        design = random_design(rng, 70, 2, [(5, 3), (3, 4)])
        weights = rng.uniform(0.1, 1.0, size=70)
        np.testing.assert_allclose(
            mu_sums(design, weights[:, None])[0],
            dense_weighted_sum(design.densify(), weights),
            rtol=1e-10,
        )


class TestFactorizedOuter:
    def test_binary_matches_dense(self, rng):
        design = random_design(rng, 60, 3, [(7, 5)])
        mean = rng.normal(size=8)
        weights = rng.uniform(0.1, 1.0, size=60)
        np.testing.assert_allclose(
            sigma_sums(design, weights[:, None], mean[None])[0],
            dense_weighted_outer(design.densify() - mean, weights),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_multiway_matches_dense(self, rng):
        design = random_design(rng, 80, 2, [(4, 3), (6, 2)])
        mean = rng.normal(size=7)
        weights = rng.uniform(0.1, 1.0, size=80)
        np.testing.assert_allclose(
            sigma_sums(design, weights[:, None], mean[None])[0],
            dense_weighted_outer(design.densify() - mean, weights),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_result_is_symmetric(self, rng):
        design = random_design(rng, 40, 2, [(5, 3)])
        mean = rng.normal(size=5)
        weights = rng.uniform(0.1, 1.0, size=40)
        out = sigma_sums(design, weights[:, None], mean[None])[0]
        np.testing.assert_allclose(out, out.T, rtol=1e-12)

    def test_zero_weights_give_zero(self, rng):
        design = random_design(rng, 20, 2, [(3, 2)])
        out = sigma_sums(design, np.zeros((20, 1)), np.zeros((1, 4)))[0]
        np.testing.assert_array_equal(out, np.zeros((4, 4)))

    def test_count_outer_is_gram_matrix(self, rng):
        """Unit weights about a zero mean: the Gram matrix."""
        design = random_design(rng, 30, 2, [(4, 3)])
        dense = design.densify()
        np.testing.assert_allclose(
            sigma_sums(design, np.ones((30, 1)), np.zeros((1, 5)))[0],
            dense.T @ dense, rtol=1e-9,
        )


@st.composite
def outer_case(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n = draw(st.integers(min_value=1, max_value=40))
    d_s = draw(st.integers(min_value=1, max_value=4))
    q = draw(st.integers(min_value=1, max_value=3))
    dims = [
        (
            draw(st.integers(min_value=1, max_value=5)),
            draw(st.integers(min_value=1, max_value=4)),
        )
        for _ in range(q)
    ]
    return seed, n, d_s, dims


@given(case=outer_case())
@settings(max_examples=60, deadline=None)
def test_factorized_outer_exact_property(case):
    """Eq. 23 reassembles to the dense weighted outer product exactly."""
    seed, n, d_s, dims = case
    rng = np.random.default_rng(seed)
    design = random_design(rng, n, d_s, dims)
    mean = rng.normal(size=design.d)
    weights = rng.uniform(0.0, 2.0, size=n)
    np.testing.assert_allclose(
        sigma_sums(design, weights[:, None], mean[None])[0],
        dense_weighted_outer(design.densify() - mean, weights),
        rtol=1e-8,
        atol=1e-8,
    )


@given(case=outer_case())
@settings(max_examples=60, deadline=None)
def test_factorized_sum_exact_property(case):
    """Eq. 22's per-relation split of Σ γ·x is exact."""
    seed, n, d_s, dims = case
    rng = np.random.default_rng(seed)
    design = random_design(rng, n, d_s, dims)
    weights = rng.uniform(0.0, 2.0, size=n)
    np.testing.assert_allclose(
        mu_sums(design, weights[:, None])[0],
        dense_weighted_sum(design.densify(), weights),
        rtol=1e-8,
        atol=1e-8,
    )
