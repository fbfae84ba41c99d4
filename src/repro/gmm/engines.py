"""Per-batch EM kernels for the dense and factorized representations.

Both engines evaluate the *same equations* (Eq. 2, 3, 4) and feed the
same driver (:func:`repro.gmm.base.run_em`); the factorized engine is an
exact algebraic rearrangement (Eq. 7–24), which is why all three
algorithms return identical models.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.gmm.model import (
    ComponentPrecisions,
    GMMParams,
    log_gaussian_from_quadform,
    log_responsibilities,
)
from repro.join.batches import DenseBatch, FactorizedBatch
from repro.linalg.outer import (
    factorized_weighted_outer,
    factorized_weighted_sum,
)
from repro.linalg.quadform import (
    dense_quadratic_form,
    factorized_quadratic_form,
)


class _EngineBase:
    """Common access-path plumbing shared by both engines."""

    def __init__(self, access, n_features: int) -> None:
        self.access = access
        self.n_features = int(n_features)

    @property
    def n_rows(self) -> int:
        return self.access.num_rows

    def batches(self, pass_index: int = 0):
        return self.access.batches(epoch=pass_index)

    def _dense_rows(self, batch) -> np.ndarray:
        raise NotImplementedError

    def init_sample(self, max_rows: int) -> np.ndarray:
        """First ``max_rows`` joined tuples in join order (densified).

        Used only to seed the initial parameters; all access paths
        produce the same join order, so all strategies initialize
        identically.
        """
        if max_rows <= 0:
            raise ModelError(f"max_rows must be positive, got {max_rows}")
        collected: list[np.ndarray] = []
        total = 0
        for batch in self.batches(0):
            rows = self._dense_rows(batch)
            if rows.shape[0] > max_rows - total:
                # C-ordered copy of the prefix: the initializer's float
                # sums follow memory order, and M- rows are not C-ordered.
                rows = np.ascontiguousarray(rows[: max_rows - total])
            collected.append(rows)
            total += rows.shape[0]
            if total >= max_rows:
                break
        if not collected:
            raise ModelError("the join produced no tuples")
        return np.concatenate(collected, axis=0)


class DenseEMEngine(_EngineBase):
    """Kernels over wide rows — used by M-GMM and S-GMM.

    Every joined tuple carries its full ``d``-dimensional feature
    vector, so each kernel costs ``O(n·d²)`` per component per batch
    with no reuse across tuples sharing a dimension tuple.
    """

    def _dense_rows(self, batch: DenseBatch) -> np.ndarray:
        return batch.features

    def estep_batch(
        self,
        batch: DenseBatch,
        params: GMMParams,
        precisions: ComponentPrecisions,
    ) -> tuple[np.ndarray, np.ndarray]:
        data = batch.features
        n, d = data.shape
        log_gauss = np.empty((n, params.n_components))
        for j in range(params.n_components):
            centered = data - params.means[j]
            quad = dense_quadratic_form(centered, precisions.precisions[j])
            log_gauss[:, j] = log_gaussian_from_quadform(
                quad, precisions.log_dets[j], d
            )
        return log_responsibilities(log_gauss, params.weights)

    def mu_accumulate_batch(
        self, batch: DenseBatch, gamma: np.ndarray
    ) -> np.ndarray:
        # Σ_n γ_nk · x_n for every component at once: (K, d).
        return gamma.T @ batch.features

    def sigma_accumulate_batch(
        self, batch: DenseBatch, gamma: np.ndarray, means: np.ndarray
    ) -> np.ndarray:
        data = batch.features
        k, d = means.shape
        out = np.empty((k, d, d))
        for j in range(k):
            centered = data - means[j]
            out[j] = centered.T @ (gamma[:, j][:, None] * centered)
        return out


class FactorizedEMEngine(_EngineBase):
    """Kernels over factorized batches — used by F-GMM.

    Dimension-only work runs at the distinct-tuple cardinality ``m_i``
    instead of the join cardinality ``n`` (Eq. 9–24); the results are
    numerically identical to :class:`DenseEMEngine` up to float
    summation order.  Each batch arrives with its
    :class:`~repro.fx.dedup.DedupPlan` already threaded into the
    design (``batch.plan``; dimension blocks at the plan's distinct
    RIDs, group indexes from
    :meth:`~repro.fx.dedup.DimensionDedup.group_index`), so the
    kernels never re-deduplicate — the training mirror of
    ``predict(..., plan=)`` on the serving side.
    """

    def _dense_rows(self, batch: FactorizedBatch) -> np.ndarray:
        return batch.design.densify()

    def estep_batch(
        self,
        batch: FactorizedBatch,
        params: GMMParams,
        precisions: ComponentPrecisions,
    ) -> tuple[np.ndarray, np.ndarray]:
        design = batch.design
        n, d = design.n, design.d
        log_gauss = np.empty((n, params.n_components))
        for j in range(params.n_components):
            quad = factorized_quadratic_form(
                design, params.means[j], precisions.precisions[j]
            )
            log_gauss[:, j] = log_gaussian_from_quadform(
                quad, precisions.log_dets[j], d
            )
        return log_responsibilities(log_gauss, params.weights)

    def mu_accumulate_batch(
        self, batch: FactorizedBatch, gamma: np.ndarray
    ) -> np.ndarray:
        design = batch.design
        k = gamma.shape[1]
        out = np.empty((k, design.d))
        for j in range(k):
            out[j] = factorized_weighted_sum(design, gamma[:, j])
        return out

    def sigma_accumulate_batch(
        self, batch: FactorizedBatch, gamma: np.ndarray, means: np.ndarray
    ) -> np.ndarray:
        design = batch.design
        k, d = means.shape
        out = np.empty((k, d, d))
        for j in range(k):
            out[j] = factorized_weighted_outer(
                design, means[j], gamma[:, j]
            )
        return out
