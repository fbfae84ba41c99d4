"""Per-batch EM kernels for the dense and factorized representations.

Both engines evaluate the *same equations* (Eq. 2, 3, 4) and feed the
same driver (:func:`repro.gmm.base.run_em`); the factorized engine is an
exact algebraic rearrangement (Eq. 7–24), which is why all three
algorithms return identical models.

Both also step through the same loop: a batch's E-step and M-step sums
are accumulated over cache-sized row tiles, each tile's work for all
``K`` components a handful of stacked calls (:mod:`repro.linalg.
quadform`, :mod:`repro.linalg.outer`).  A dense batch is a design with
no dimension relation, so the engines differ only in the batch they
hand that loop — which is the whole of the M-/S-/F- comparison.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.gmm.model import LOG_2PI
from repro.join.batches import DenseBatch, FactorizedBatch
from repro.linalg.blocks import TILE_BYTES
from repro.linalg.design import FactorizedDesign
from repro.linalg.outer import (
    add_outer_tile,
    add_sum_tile,
    finish_outer,
    finish_sum,
    zero_sums,
)
from repro.linalg.quadform import quadform_tables, stacked_quadratic_form


class _EngineBase:
    """The access-path plumbing and the tiled EM step both engines share."""

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

    # -- the tiled EM step ---------------------------------------------------

    @staticmethod
    def _tiles(n: int, width: int):
        """Row ranges of a batch, ``TILE_BYTES`` per ``width``-float block."""
        tile = max(1, TILE_BYTES // (8 * width))
        for start in range(0, n, tile):
            yield slice(start, min(start + tile, n))

    def _estep(self, design: FactorizedDesign, params, precisions):
        """Eq. 2 tile by tile: ``(K, t)`` quadratic forms, then
        log-sum-exp in place."""
        k, means = params.n_components, params.means
        tables = quadform_tables(design, means, precisions.precisions)
        shift = np.log(params.weights) - 0.5 * (
            design.d * LOG_2PI + precisions.log_dets
        )
        gamma = np.empty((design.n, k))
        log_likelihoods = np.empty(design.n)
        for rows in self._tiles(design.n, k * design.tile_width):
            block = stacked_quadratic_form(
                design, means, precisions.precisions, tables, rows
            )
            block *= -0.5
            block += shift[:, None]         # log π_k N(x | µ_k, Σ_k)
            peak = block.max(axis=0)
            block -= peak
            np.exp(block, out=block)
            norm = block.sum(axis=0)
            block /= norm
            gamma[rows] = block.T
            log_likelihoods[rows] = peak + np.log(norm)
        return gamma, log_likelihoods

    def _mu_sums(self, design: FactorizedDesign, gamma):
        k = gamma.shape[1]
        sums = zero_sums(design, k, outer=False)
        for rows in self._tiles(design.n, k):
            add_sum_tile(design, gamma, rows, sums)
        return finish_sum(design, sums)

    def _sigma_sums(self, design: FactorizedDesign, gamma, means):
        k = gamma.shape[1]
        sums = zero_sums(design, k, outer=True)
        for rows in self._tiles(design.n, k * design.tile_width):
            add_outer_tile(design, means, gamma, rows, sums)
        return finish_outer(design, means, sums)


def _wide(batch: DenseBatch) -> FactorizedDesign:
    """A dense batch as the design it is: every column a fact column."""
    return FactorizedDesign(batch.features, [], [])


# Each engine defines the driver's three kernels itself (the e2e tracer
# wraps them per class); all they choose is the design the tiles read.


class DenseEMEngine(_EngineBase):
    """Kernels over wide rows — used by M-GMM and S-GMM.

    Every joined tuple carries its full ``d``-dimensional feature
    vector, so each kernel costs ``O(n·d²)`` per component per batch
    with no reuse across tuples sharing a dimension tuple.
    """

    def _dense_rows(self, batch: DenseBatch, stop: int) -> np.ndarray:
        return batch.features[:stop]

    def estep_batch(self, batch: DenseBatch, params, precisions):
        return self._estep(_wide(batch), params, precisions)

    def mu_accumulate_batch(self, batch: DenseBatch, gamma):
        return self._mu_sums(_wide(batch), gamma)

    def sigma_accumulate_batch(self, batch: DenseBatch, gamma, means):
        return self._sigma_sums(_wide(batch), gamma, means)


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

    def estep_batch(self, batch: FactorizedBatch, params, precisions):
        return self._estep(batch.design, params, precisions)

    def mu_accumulate_batch(self, batch: FactorizedBatch, gamma):
        return self._mu_sums(batch.design, gamma)

    def sigma_accumulate_batch(self, batch: FactorizedBatch, gamma, means):
        return self._sigma_sums(batch.design, gamma, means)
