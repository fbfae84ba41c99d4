"""Deterministic GMM initialization.

All three algorithms (M-/S-/F-GMM) must start from *identical*
parameters so the exactness claim (same model, same accuracy —
Section V-B) is testable end to end.  We therefore derive the initial
parameters from a sample of the joined table taken in join order, which
all access paths produce identically, using a seeded k-means++ seeding —
the one seeding, so every arm and every run of a seed starts alike.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.gmm.model import GMMParams

DEFAULT_INIT_SAMPLE = 4096


def kmeans_plusplus_centers(
    data: np.ndarray, n_components: int, rng: np.random.Generator
) -> np.ndarray:
    """Seed ``n_components`` centers with the k-means++ heuristic."""
    n = data.shape[0]
    if n < n_components:
        raise ModelError(
            f"cannot seed {n_components} components from {n} samples"
        )
    centers = np.empty((n_components, data.shape[1]))
    first = int(rng.integers(n))
    centers[0] = data[first]
    closest_sq = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, n_components):
        total = closest_sq.sum()
        if total <= 0:
            # All residual mass at existing centers: fall back to a
            # uniform draw over the sample.
            pick = int(rng.integers(n))
        else:
            probabilities = closest_sq / total
            pick = int(rng.choice(n, p=probabilities))
        centers[j] = data[pick]
        distance_sq = ((data - centers[j]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, distance_sq)
    return centers


def initial_params(
    sample: np.ndarray,
    n_components: int,
    *,
    seed: int = 0,
    reg_covar: float = 1e-6,
) -> GMMParams:
    """Build starting ``(π, µ, Σ)`` from a sample of joined tuples.

    Means are a seeded k-means++ draw from the sample.  Covariances
    start as the sample's diagonal covariance, shared across
    components; weights start uniform.
    """
    sample = np.asarray(sample, dtype=np.float64)
    if sample.ndim != 2:
        raise ModelError(f"sample must be 2-D, got shape {sample.shape}")
    if n_components <= 0:
        raise ModelError(f"n_components must be positive, got {n_components}")
    means = kmeans_plusplus_centers(
        sample, n_components, np.random.default_rng(seed)
    )
    variances = sample.var(axis=0)
    variances = np.maximum(variances, reg_covar)
    shared = np.diag(variances)
    covariances = np.repeat(shared[None, :, :], n_components, axis=0)
    weights = np.full(n_components, 1.0 / n_components)
    return GMMParams(weights, means, covariances)
