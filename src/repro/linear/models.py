"""Factorized linear models over normalized data.

The related work the paper generalizes (Section II): Kumar et al. learn
*generalized linear models* over normalized data by pushing the linear
algebra through the join — ``wᵀx`` splits into ``wᵀ_S x_S + wᵀ_R x_R``
with the dimension side computed once per distinct tuple.  These
baselines are included both for completeness of the reproduction and
because they exercise the same factorized primitives as the paper's
nonlinear contribution:

* :func:`fit_ridge` — closed form via the normal equations: the raw
  ``K = 1``, γ ≡ 1 moments of the mixture's M-step
  (:func:`~repro.gmm.model.sigma_sums`, all dimension-dimension
  blocks at distinct-tuple cardinality) over the design with the target
  as its first fact column — what ``repro.maintain`` keeps current;
* :func:`fit_logistic` — gradient descent; each pass computes the
  margin ``Xw`` factorized (one product per distinct dimension tuple)
  and the gradient ``Xᵀ(p − y)`` with grouped contractions.

Both stream the factorized join access path, so nothing is ever
materialized, and both match their dense counterparts exactly (tests).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.strategies import FACTORIZED
from repro.core.training import open_access
from repro.errors import ModelError
from repro.gmm.model import mu_sums, sigma_sums
from repro.join.bnl import DEFAULT_BLOCK_PAGES
from repro.join.spec import JoinSpec
from repro.linalg.design import FactorizedDesign
from repro.storage.catalog import Database


@dataclass
class LinearModel:
    """A fitted linear predictor ``y ≈ x·w + b``."""

    weights: np.ndarray
    intercept: float
    algorithm: str
    wall_time_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        return features @ self.weights + self.intercept

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.decision_function(features)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Sigmoid of the margin (for the logistic model)."""
        margin = self.decision_function(features)
        exp_neg = np.exp(-np.abs(margin))
        denominator = 1.0 + exp_neg
        return np.where(
            margin >= 0, 1.0 / denominator, exp_neg / denominator
        )


def _margin(design: FactorizedDesign, weights: np.ndarray) -> np.ndarray:
    """``X w`` with the dimension-side products reused per distinct
    tuple — the factorized-learning kernel of the related work."""
    parts = design.layout.split_vector(weights)
    margin = design.fact_block @ parts[0]
    for i, (block, group) in enumerate(
        zip(design.dim_blocks, design.groups)
    ):
        margin += group.gather(block @ parts[i + 1])
    return margin


def _gradient(
    design: FactorizedDesign, residual: np.ndarray
) -> np.ndarray:
    """``Xᵀ r`` with grouped contraction on the dimension side."""
    parts = [residual @ design.fact_block]
    for block, group in zip(design.dim_blocks, design.groups):
        parts.append(group.sum_weights(residual) @ block)
    return np.concatenate(parts)


def with_target(design: FactorizedDesign, targets) -> FactorizedDesign:
    """``design`` with ``targets`` as its first fact column: the raw
    moments of ``[y | x]`` hold ``Xᵀy`` beside ``XᵀX``."""
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if targets.size != design.n:
        raise ModelError(f"{design.n} rows but {targets.size} targets")
    return FactorizedDesign(
        np.column_stack([targets, design.fact_block]),
        design.dim_blocks, design.groups,
    )


def ridge_solution(n: int, sums, outer, alpha: float):
    """``(weights, intercept)`` of ``(XᵀX + αI) w = Xᵀy`` from the raw
    moments of :func:`with_target`'s design (``sums = [Σy | Σx]``,
    ``outer = [y | X]ᵀ[y | X]``), with the intercept handled by
    centering (``XᵀX`` is corrected analytically, never recomputed)."""
    mean = sums[1:] / n
    target_mean = sums[0] / n
    centered_gram = outer[1:, 1:] - n * np.outer(mean, mean)
    centered_cross = outer[0, 1:] - n * mean * target_mean
    weights = np.linalg.solve(
        centered_gram + alpha * np.eye(mean.size), centered_cross
    )
    return weights, float(target_mean - mean @ weights)


def fit_ridge(
    db: Database,
    spec: JoinSpec,
    *,
    alpha: float = 1e-3,
    block_pages: int = DEFAULT_BLOCK_PAGES,
) -> LinearModel:
    """Ridge regression over the star join via factorized normal
    equations (:func:`ridge_solution`)."""
    if alpha < 0:
        raise ModelError(f"alpha must be non-negative, got {alpha}")
    start = time.perf_counter()
    with open_access(db, spec, FACTORIZED, block_pages) as access:
        if not access.has_target:
            raise ModelError("ridge regression requires a TARGET column")
        d = access.resolved.total_features + 1
        sums = np.zeros((1, d))
        outer = np.zeros((1, d, d))
        n = 0
        for batch in access.batches():
            design = with_target(batch.design, batch.targets)
            ones = np.ones((design.n, 1))
            sums += mu_sums(design, ones)
            outer += sigma_sums(design, ones, np.zeros((1, d)))
            n += design.n
    if n == 0:
        raise ModelError("the join produced no tuples")
    weights, intercept = ridge_solution(n, sums[0], outer[0], alpha)
    return LinearModel(
        weights=weights,
        intercept=intercept,
        algorithm="F-Ridge",
        wall_time_seconds=time.perf_counter() - start,
        extra={"n": n, "alpha": alpha},
    )


def fit_logistic(
    db: Database,
    spec: JoinSpec,
    *,
    epochs: int = 20,
    learning_rate: float = 0.5,
    l2: float = 0.0,
    block_pages: int = DEFAULT_BLOCK_PAGES,
) -> LinearModel:
    """Logistic regression (targets in {0,1}) by full-batch gradient
    descent over the factorized join — the Kumar et al. baseline."""
    if epochs <= 0:
        raise ModelError(f"epochs must be positive, got {epochs}")
    if learning_rate <= 0:
        raise ModelError(
            f"learning_rate must be positive, got {learning_rate}"
        )
    start = time.perf_counter()
    with open_access(db, spec, FACTORIZED, block_pages) as access:
        if not access.has_target:
            raise ModelError("logistic regression requires a TARGET column")
        d = access.resolved.total_features
        weights = np.zeros(d)
        intercept = 0.0
        n = access.num_rows
        losses: list[float] = []
        for _ in range(epochs):
            grad_w = np.zeros(d)
            grad_b = 0.0
            loss = 0.0
            for batch in access.batches():
                design = batch.design
                targets = batch.targets
                margin = _margin(design, weights) + intercept
                exp_neg = np.exp(-np.abs(margin))
                probability = np.where(
                    margin >= 0,
                    1.0 / (1.0 + exp_neg),
                    exp_neg / (1.0 + exp_neg),
                )
                residual = (probability - targets) / n
                grad_w += _gradient(design, residual)
                grad_b += float(residual.sum())
                loss += float(
                    (np.logaddexp(0.0, -np.abs(margin))
                     + np.maximum(margin, 0.0) - margin * targets).sum()
                )
            grad_w += l2 * weights
            weights = weights - learning_rate * grad_w
            intercept -= learning_rate * grad_b
            losses.append(loss / n)
    return LinearModel(
        weights=weights,
        intercept=intercept,
        algorithm="F-Logistic",
        wall_time_seconds=time.perf_counter() - start,
        extra={"loss_history": losses, "n": n},
    )
