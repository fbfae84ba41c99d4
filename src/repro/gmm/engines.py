"""Per-batch EM kernels for the dense and factorized representations.

Both engines evaluate the *same equations* (Eq. 2, 3, 4) and feed the
same driver (:func:`repro.gmm.base.run_em`); the factorized engine is an
exact algebraic rearrangement (Eq. 7–24), which is why all three
algorithms return identical models.

Both also step through the same loop (:func:`repro.gmm.model.tiles`):
the driver's step (:func:`~repro.gmm.model.em_step`) walks a batch's
row tiles once, each tile's E-step and M-step sums for all ``K``
components a handful of stacked calls (:mod:`repro.linalg.quadform`,
:mod:`repro.linalg.outer`) on one gathered, centred block.  A dense
batch is a design with no dimension relation, so the engines differ
only in the batch they hand that loop — the whole M-/S-/F- comparison.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.gmm.model import em_step, mu_sums, posteriors, sigma_sums
from repro.join.batches import DenseBatch, FactorizedBatch
from repro.linalg.design import FactorizedDesign


class _EngineBase:
    """The access-path plumbing both engines share."""

    def __init__(self, access, n_features: int) -> None:
        self.access = access
        self.n_features = int(n_features)

    @property
    def n_rows(self) -> int:
        return self.access.num_rows

    def batches(self, pass_index: int = 0):
        return self.access.batches(epoch=pass_index)

    def _dense_rows(self, batch, stop: int) -> np.ndarray:
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
            rows = self._dense_rows(batch, max_rows - total)
            if batch.n > max_rows - total:
                # C-ordered copy of the prefix: the initializer's float
                # sums follow memory order, and M- rows are not C-ordered.
                rows = np.ascontiguousarray(rows)
            collected.append(rows)
            total += rows.shape[0]
            if total >= max_rows:
                break
        if not collected:
            raise ModelError("the join produced no tuples")
        return np.concatenate(collected, axis=0)


def _wide(batch: DenseBatch) -> FactorizedDesign:
    """A dense batch as the design it is: every column a fact column."""
    return FactorizedDesign(batch.features, [], [])


# Each engine defines its step and the three kernels itself (the e2e
# tracer wraps them per class); all they choose is the design the tiles read.


class DenseEMEngine(_EngineBase):
    """Kernels over wide rows — used by M-GMM and S-GMM.

    Every joined tuple carries its full ``d``-dimensional feature
    vector, so each kernel costs ``O(n·d²)`` per component per batch
    with no reuse across tuples sharing a dimension tuple.
    """

    def _dense_rows(self, batch: DenseBatch, stop: int) -> np.ndarray:
        return batch.features[:stop]

    def step_batch(self, batch: DenseBatch, params, precisions, centre):
        return em_step(_wide(batch), params, precisions, centre)

    def estep_batch(self, batch: DenseBatch, params, precisions):
        return posteriors(_wide(batch), params, precisions)

    def mu_accumulate_batch(self, batch: DenseBatch, gamma):
        return mu_sums(_wide(batch), gamma)

    def sigma_accumulate_batch(self, batch: DenseBatch, gamma, means):
        return sigma_sums(_wide(batch), gamma, means)


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

    def _dense_rows(self, batch: FactorizedBatch, stop: int) -> np.ndarray:
        return batch.design.densify(slice(0, stop))

    def step_batch(self, batch: FactorizedBatch, params, precisions, centre):
        return em_step(batch.design, params, precisions, centre)

    def estep_batch(self, batch: FactorizedBatch, params, precisions):
        return posteriors(batch.design, params, precisions)

    def mu_accumulate_batch(self, batch: FactorizedBatch, gamma):
        return mu_sums(batch.design, gamma)

    def sigma_accumulate_batch(self, batch: FactorizedBatch, gamma, means):
        return sigma_sums(batch.design, gamma, means)
