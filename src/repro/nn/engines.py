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
        targets = self._require_targets(batch)
        model = self.model
        outputs, cache = model.forward(batch.features)
        loss = model.loss.value(outputs, targets, normalization)
        grad_output = model.loss.gradient(outputs, targets, normalization)
        grads, grad_first_pre = model.backward_to_first_preactivation(
            cache, grad_output
        )
        grads[0] = model.first_layer.parameter_grads(
            grad_first_pre, batch.features
        )
        return loss, grads  # type: ignore[return-value]


class FactorizedNNEngine(_NNEngineBase):
    """Factorized first layer — F-NN (binary and multi-way alike).

    Batches arrive with their :class:`~repro.fx.dedup.DedupPlan`
    threaded into the design (``batch.plan``): the group indexes the
    gathers below run on come from the plan's ``(unique, inverse)``
    sort, built on a block's first pass and replayed after — the
    training mirror of the serving predictors' ``predict(..., plan=)``
    contract.  Gathers need no group order, so backward never sorts.
    """

    def first_preactivations(self, batch: FactorizedBatch) -> np.ndarray:
        """Section VI-A1: ``a⁽¹⁾ = W_S x_S + Σᵢ gather(W_{R_i} x_{R_i}) + b``.

        The per-dimension products run at distinct-tuple cardinality
        ``m_i`` and are reused for every matching fact tuple — within a
        batch the weights are constant, which is exactly the condition
        the paper states for the reuse to be sound.
        """
        design = batch.design
        layout = design.layout
        first = self.model.first_layer
        weight_parts = layout.split_columns(first.weights)
        pre = design.fact_block @ weight_parts[0].T
        last = design.num_dimensions - 1
        for i, (block, group) in enumerate(
            zip(design.dim_blocks, design.groups)
        ):
            partial = block @ weight_parts[i + 1].T    # (m_i, n_h), reused
            if i == last:
                # The paper folds the bias into the reused term T2
                # (Section VI-A1), so it is added once per distinct
                # dimension tuple rather than once per fact tuple.
                partial = partial + first.bias
            pre += group.gather(partial)
        return pre

    def first_layer_grads(
        self, batch: FactorizedBatch, grad_first_pre: np.ndarray
    ) -> LayerGrads:
        """Eq. 29/32: ``∂E/∂W⁽¹⁾ = [PG_S | PG_{R_1} | … ]``.

        ``PG_S`` contracts over fact rows directly.  For ``PG_{R_i}``
        the paper populates ``x_{R_i}`` from the dimension relation
        (gather) and multiplies — no compute reuse, only the I/O saving
        of never reading the redundant fields of ``T``.  (Grouping
        ``∂E/∂a`` per distinct dimension tuple first was measured and
        does not win: ``docs/tuning.md``.)
        """
        design = batch.design
        parts = [grad_first_pre.T @ design.fact_block]
        for block, group in zip(design.dim_blocks, design.groups):
            parts.append(grad_first_pre.T @ group.gather(block))
        return LayerGrads(
            weights=np.concatenate(parts, axis=1),
            bias=grad_first_pre.sum(axis=0),
        )

    def batch_gradients(
        self, batch: FactorizedBatch, normalization: int
    ) -> tuple[float, list[LayerGrads]]:
        targets = self._require_targets(batch)
        model = self.model
        first_pre = self.first_preactivations(batch)
        outputs, cache = model.forward_from_first_preactivation(first_pre)
        loss = model.loss.value(outputs, targets, normalization)
        grad_output = model.loss.gradient(outputs, targets, normalization)
        grads, grad_first_pre = model.backward_to_first_preactivation(
            cache, grad_output
        )
        grads[0] = self.first_layer_grads(batch, grad_first_pre)
        return loss, grads  # type: ignore[return-value]
