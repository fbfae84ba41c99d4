"""Factorized ridge regression over normalized data.

The related work the paper generalizes (Section II): Kumar et al. learn
*generalized linear models* over normalized data by pushing the linear
algebra through the join.  ``linear/`` keeps only what
:mod:`repro.maintain` folds and keeps current: :func:`fit_ridge`, the
closed form via the normal equations — the ``K = 1``, γ ≡ 1 moments of
the mixture's M-step over the design with the target as its first fact
column, summed in one walk per batch about the first batch's means (all
dimension-dimension blocks at distinct-tuple cardinality) and solved
through the mixture's own M-step (:func:`~repro.gmm.base.m_step`), so no
raw ``XᵀX`` cancels at large offsets.  It streams the factorized join
access path, so nothing is ever materialized, and it matches its dense
counterpart exactly (tests).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.strategies import FACTORIZED
from repro.core.training import open_access
from repro.errors import ModelError
from repro.gmm.base import m_step
from repro.gmm.model import moment_sums
from repro.join.bnl import DEFAULT_BLOCK_PAGES
from repro.join.spec import JoinSpec
from repro.linalg.design import FactorizedDesign
from repro.linalg.outer import finish_outer, finish_sum
from repro.linalg.stats import factorized_mean
from repro.storage.catalog import Database


@dataclass
class LinearModel:
    """A fitted linear predictor ``y ≈ x·w + b``."""

    weights: np.ndarray
    intercept: float
    algorithm: str
    wall_time_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        return features @ self.weights + self.intercept


def with_target(design: FactorizedDesign, targets) -> FactorizedDesign:
    """``design`` with ``targets`` as its first fact column: the moments
    of ``[y | x]`` hold ``Xᵀy`` beside ``XᵀX``."""
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if targets.size != design.n:
        raise ModelError(f"{design.n} rows but {targets.size} targets")
    return FactorizedDesign(
        np.column_stack([targets, design.fact_block]),
        design.dim_blocks, design.groups,
    )


def ridge_sums(design: FactorizedDesign, targets, centre):
    """One batch's ``[y | x]`` design, the centre of its walk — ``centre``,
    or the batch's own column means when that is ``None`` — and the
    unfinished tile sums of one unit-weight walk about it
    (:func:`~repro.gmm.model.moment_sums`, ``K = 1``, γ ≡ 1)."""
    design = with_target(design, targets)
    if centre is None:
        centre = factorized_mean(design)[None]
    return design, centre, moment_sums(design, np.ones((design.n, 1)), centre)


def ridge_solution(n: int, sums, outer, alpha: float, centre):
    """``(weights, intercept)`` of ``(XcᵀXc + αI) w = Xcᵀyc`` from the
    moments of :func:`with_target`'s design (``sums = [Σy | Σx]``, ``outer``
    about ``centre``) through the ``K = 1`` M-step (:func:`~repro.gmm.base.
    m_step`), so no raw ``XᵀX`` cancels; ``None`` where its correction does."""
    moments = m_step(np.array([float(n)]), sums[None], outer[None], centre[None], n)
    if moments is None:
        return None
    mean, scatter = moments.means[0], n * moments.covariances[0]
    weights = np.linalg.solve(
        scatter[1:, 1:] + alpha * np.eye(mean.size - 1), scatter[0, 1:]
    )
    return weights, float(mean[0] - mean[1:] @ weights)


def fit_ridge(
    db: Database,
    spec: JoinSpec,
    *,
    alpha: float = 1e-3,
    block_pages: int = DEFAULT_BLOCK_PAGES,
) -> LinearModel:
    """Ridge regression over the star join via factorized normal
    equations: one walk per batch about the first batch's means
    (:func:`ridge_sums`), then :func:`ridge_solution`."""
    if alpha < 0:
        raise ModelError(f"alpha must be non-negative, got {alpha}")
    start = time.perf_counter()
    with open_access(db, spec, FACTORIZED, block_pages) as access:
        if not access.has_target:
            raise ModelError("ridge regression requires a TARGET column")
        d = access.resolved.total_features + 1
        sums, outer, n, centre = np.zeros((1, d)), np.zeros((1, d, d)), 0, None
        for batch in access.batches():
            design, centre, tiles = ridge_sums(batch.design, batch.targets, centre)
            sums += finish_sum(design, tiles)
            outer += finish_outer(design, centre, tiles)
            n += design.n
    if n == 0:
        raise ModelError("the join produced no tuples")
    solution = ridge_solution(n, sums[0], outer[0], alpha, centre[0])
    if solution is None:
        raise ModelError("the first batch is too small a share of the join to centre on")
    weights, intercept = solution
    return LinearModel(
        weights=weights,
        intercept=intercept,
        algorithm="F-Ridge",
        wall_time_seconds=time.perf_counter() - start,
        extra={"n": n, "alpha": alpha},
    )
