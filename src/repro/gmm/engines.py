"""The per-batch EM kernels, one engine for M-, S- and F-GMM.

All three evaluate the *same equations* (Eq. 2, 3, 4) in the same
driver (:func:`repro.gmm.base.run_em`); the factorized rearrangement
(Eq. 7–24) is exact, and on an M- or S- batch — every dimension
inlined — it is the dense computation, which is why all three
algorithms return identical models.

The driver's step (:func:`~repro.gmm.model.em_step`) walks a batch's
row tiles once (:func:`repro.gmm.model.tiles`), each tile's E-step and
M-step sums for all ``K`` components a handful of stacked calls
(:mod:`repro.linalg.quadform`, :mod:`repro.linalg.outer`) on one
gathered, centred block.  The arms differ only in the batch they hand
that loop — the whole M-/S-/F- comparison.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.gmm.model import em_step, mu_sums, posteriors, sigma_sums
from repro.join.batches import Batch


class FactorizedEMEngine:
    """Kernels over the batches of every access path.

    Work on a dimension the batch keeps runs at the distinct-tuple
    cardinality ``m_i`` instead of the join cardinality ``n`` (Eq.
    9–24); an inlined one costs ``O(n·d²)`` per component.  Dimension
    blocks and group indexes come from the batch's
    :class:`~repro.fx.dedup.DedupPlan`, so the kernels never
    re-deduplicate — the training mirror of ``predict(..., plan=)``.
    """

    def __init__(self, access, n_features: int) -> None:
        self.access = access
        self.n_features = int(n_features)

    @property
    def n_rows(self) -> int:
        return self.access.num_rows

    def batches(self, pass_index: int = 0):
        return self.access.batches(epoch=pass_index)

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
            rows = batch.design.densify(slice(0, max_rows - total))
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

    def step_batch(self, batch: Batch, params, precisions, centre):
        return em_step(batch.design, params, precisions, centre)

    def estep_batch(self, batch: Batch, params, precisions):
        return posteriors(batch.design, params, precisions)

    def mu_accumulate_batch(self, batch: Batch, gamma):
        return mu_sums(batch.design, gamma)

    def sigma_accumulate_batch(self, batch: Batch, gamma, means):
        return sigma_sums(batch.design, gamma, means)


class DenseEMEngine(FactorizedEMEngine):
    """The e2e tracer's name for the engine (it wraps per class);
    nothing under ``src/`` constructs it."""

    estep_batch = FactorizedEMEngine.estep_batch
    mu_accumulate_batch = FactorizedEMEngine.mu_accumulate_batch
    sigma_accumulate_batch = FactorizedEMEngine.sigma_accumulate_batch
