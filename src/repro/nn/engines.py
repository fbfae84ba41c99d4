"""Per-batch forward/backward kernels for dense and factorized input.

Everything above the first hidden layer is shared verbatim through the
:class:`~repro.nn.network.MLP` seam; the engines differ only in how the
first layer's pre-activations and parameter gradients are computed:

* :class:`DenseNNEngine` — ``a⁽¹⁾ = X W⁽¹⁾ᵀ + b`` over wide rows
  (M-NN / S-NN).
* :class:`FactorizedNNEngine` — Section VI-A1: the dimension-side
  partial products ``X_{R_i} W_{R_i}ᵀ`` are computed once per distinct
  dimension tuple and gathered; backward follows Section VI-A3 (Eq. 29):
  parameter gradients per relation block, with the paper's
  gather-then-multiply for ``PG_R``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.join.batches import DenseBatch, FactorizedBatch
from repro.nn.layers import LayerGrads
from repro.nn.network import MLP


class _NNEngineBase:
    def __init__(self, access, model: MLP) -> None:
        self.access = access
        self.model = model

    @property
    def n_rows(self) -> int:
        return self.access.num_rows

    def batches(self, epoch: int = 0):
        return self.access.batches(epoch=epoch)

    @staticmethod
    def _require_targets(batch) -> np.ndarray:
        if batch.targets is None:
            raise ModelError(
                "NN training requires a TARGET column on the fact relation"
            )
        return batch.targets


class DenseNNEngine(_NNEngineBase):
    """Standard dense forward/backward — M-NN and S-NN."""

    def batch_gradients(
        self, batch: DenseBatch, normalization: int
    ) -> tuple[float, list[LayerGrads]]:
        return self.model.dense_gradients(
            batch.features, self._require_targets(batch), normalization
        )


class FactorizedNNEngine(_NNEngineBase):
    """Factorized first layer — F-NN (binary and multi-way alike).

    Batches arrive with their :class:`~repro.fx.dedup.DedupPlan`
    threaded into the design (``batch.plan``): the group codes the
    gathers below run on come from the plan's ``(unique, inverse)``
    sort, built on a block's first pass and replayed after — the
    training mirror of the serving predictors' ``predict(..., plan=)``
    contract.  Gathers need no group order, so backward never sorts.
    The step cuts the batch into the same row tiles S-NN's does, so the
    two differ only in the first layer's representation.
    """

    def dimension_partials(self, batch: FactorizedBatch) -> list[np.ndarray]:
        """Section VI-A1's reused terms ``X_{R_i} W_{R_i}ᵀ``, ``(m_i, n_h)``.

        Computed once per batch at distinct-tuple cardinality ``m_i``,
        reused by every matching fact tuple of every tile — within a
        batch the weights are constant, the paper's condition for the
        reuse to be sound.
        """
        design = batch.design
        first = self.model.first_layer
        parts = design.layout.split_columns(first.weights)[1:]
        partials = [x @ w.T for x, w in zip(design.dim_blocks, parts)]
        # The paper folds the bias into the reused term T2 (Section
        # VI-A1), so it is added once per distinct dimension tuple
        # rather than once per fact tuple.
        partials[-1] += first.bias
        return partials

    def first_preactivations(
        self, batch: FactorizedBatch, partials, rows: slice = slice(None)
    ) -> np.ndarray:
        """``a⁽¹⁾ = W_S x_S + Σᵢ gather(partialᵢ)`` for ``rows`` of the
        batch, given its :meth:`dimension_partials`."""
        design = batch.design
        fact = design.fact_block[rows]
        pre = fact @ self.model.first_layer.weights[:, : fact.shape[1]].T
        for partial, group in zip(partials, design.groups):
            pre += partial.take(group.codes[rows], axis=0)
        return pre

    def first_layer_grads(
        self, batch: FactorizedBatch, grad_pre, rows: slice = slice(None)
    ) -> LayerGrads:
        """Eq. 29/32: ``∂E/∂W⁽¹⁾ = [PG_S | PG_{R_1} | … ]`` over ``rows``.

        ``PG_S`` contracts over fact rows directly.  For ``PG_{R_i}``
        the paper populates ``x_{R_i}`` from the dimension relation
        (gather) and multiplies — no compute reuse, only the I/O saving
        of never reading the redundant fields of ``T``.  (Grouping
        ``∂E/∂a`` per distinct dimension tuple first was measured and
        does not win: ``docs/tuning.md``.)
        """
        design = batch.design
        parts = [grad_pre.T @ design.fact_block[rows]]
        for block, group in zip(design.dim_blocks, design.groups):
            parts.append(grad_pre.T @ block.take(group.codes[rows], axis=0))
        return LayerGrads(
            weights=np.concatenate(parts, axis=1),
            bias=grad_pre.sum(axis=0),
        )

    def batch_gradients(
        self, batch: FactorizedBatch, normalization: int
    ) -> tuple[float, list[LayerGrads]]:
        partials = self.dimension_partials(batch)
        return self.model.tiled_gradients(
            self._require_targets(batch), normalization,
            lambda rows: self.first_preactivations(batch, partials, rows),
            lambda rows, grad: self.first_layer_grads(batch, grad, rows),
        )
