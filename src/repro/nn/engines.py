"""Per-batch forward/backward kernels, one engine for M-, S- and F-NN.

Everything above the first hidden layer is shared verbatim through the
:class:`~repro.nn.network.MLP` seam.  The first layer follows Section
VI-A1: the dimension-side partial products ``X_{R_i} W_{R_i}ᵀ`` are
computed once per distinct dimension tuple and gathered; backward
follows Section VI-A3 (Eq. 29): parameter gradients per relation block,
with the paper's gather-then-multiply for ``PG_R``.  On an M- or S-
batch — every dimension inlined — that is ``a⁽¹⁾ = X W⁽¹⁾ᵀ + b``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.join.batches import Batch
from repro.nn.layers import LayerGrads
from repro.nn.network import MLP


class FactorizedNNEngine:
    """Factorized first layer — every arm, any number of dimensions.

    Batches arrive with their :class:`~repro.fx.dedup.DedupPlan`
    threaded into the design (``batch.plan``): the group codes the
    gathers below run on come from the plan's ``(unique, inverse)``
    sort, built on a block's first pass and replayed after — the
    training mirror of the serving predictors' ``predict(..., plan=)``
    contract.  Gathers need no group order, so backward never sorts.
    The step cuts every batch into the same row tiles, so the arms
    differ only in the first layer's representation.
    """

    def __init__(self, access, model: MLP) -> None:
        self.access = access
        self.model = model

    @property
    def n_rows(self) -> int:
        return self.access.num_rows

    def batches(self, epoch: int = 0):
        return self.access.batches(epoch=epoch)

    def dimension_partials(self, batch: Batch) -> list[np.ndarray]:
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
        if partials:
            partials[-1] += first.bias
        return partials

    def first_preactivations(
        self, batch: Batch, partials, rows: slice = slice(None)
    ) -> np.ndarray:
        """``a⁽¹⁾ = W_S x_S + Σᵢ gather(partialᵢ)`` for ``rows`` of the
        batch, given its :meth:`dimension_partials`."""
        design = batch.design
        first = self.model.first_layer
        fact = design.fact_block[rows]
        pre = fact @ first.weights[:, : fact.shape[1]].T
        if not partials:
            # every dimension inlined: no partial carries the bias
            pre += first.bias
        for partial, group in zip(partials, design.groups):
            pre += partial.take(group.codes[rows], axis=0)
        return pre

    def first_layer_grads(
        self, batch: Batch, grad_pre, rows: slice = slice(None)
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
        self, batch: Batch, normalization: int
    ) -> tuple[float, list[LayerGrads]]:
        if batch.targets is None:
            raise ModelError(
                "NN training requires a TARGET column on the fact relation"
            )
        partials = self.dimension_partials(batch)
        return self.model.tiled_gradients(
            batch.targets, normalization,
            lambda rows: self.first_preactivations(batch, partials, rows),
            lambda rows, grad: self.first_layer_grads(batch, grad, rows),
        )


class DenseNNEngine(FactorizedNNEngine):
    """The e2e tracer's name for the engine (it wraps per class);
    nothing under ``src/`` constructs it."""

    batch_gradients = FactorizedNNEngine.batch_gradients
