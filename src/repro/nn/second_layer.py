"""Second-layer computation sharing (Section VI-A2).

For an *additive* activation ``f`` (Cauchy equation), the second-layer
unit value factors as Eq. 27:

    l = f( Σ_j w⁽²⁾ f(T1_j) + Σ_j w⁽²⁾ f(T2_j) + b⁽²⁾ )
      = f( f(T1) W⁽²⁾ᵀ + T3 )

with ``T1 = W_S x_S`` (per fact tuple), ``T2 = W_R x_R + b⁽¹⁾`` (per
distinct dimension tuple, reused) and ``T3 = f(T2) W⁽²⁾ᵀ + b⁽²⁾``
(also reused).  This module implements that scheme so the paper's two
claims are demonstrable in code:

1. exactness holds only for additive ``f`` (identity; ReLU when ``T1``
   and ``T2`` agree in sign) — tested against the standard forward;
2. even when exact, the reuse costs *more* operations than the
   standard second layer (op counts in :mod:`repro.fx.costs`),
   so factorization should stop after layer 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.linalg.design import FactorizedDesign
from repro.nn.activations import Activation, get_activation
from repro.nn.layers import DenseLayer


@dataclass
class SecondLayerOutputs:
    """Standard vs reuse-path second-layer values plus bookkeeping."""

    standard: np.ndarray
    reused: np.ndarray
    #: multiplications performed by each path (measured, not modeled)
    standard_multiplications: int
    reused_multiplications: int

    @property
    def max_deviation(self) -> float:
        return float(np.abs(self.standard - self.reused).max())


def second_layer_standard(
    design: FactorizedDesign,
    first: DenseLayer,
    second: DenseLayer,
    activation: Activation,
) -> tuple[np.ndarray, int]:
    """The ordinary path: densify, layer 1, activation, layer 2.

    Returns the second-layer activations and the multiplication count
    (``n·n_h·d`` for layer 1 plus ``n·n_l·n_h`` for layer 2).
    """
    dense = design.densify()
    hidden = activation(first.forward(dense))
    outputs = activation(second.forward(hidden))
    n = design.n
    mults = n * first.n_out * first.n_in + n * second.n_out * second.n_in
    return outputs, mults


def second_layer_with_reuse(
    design: FactorizedDesign,
    first: DenseLayer,
    second: DenseLayer,
    activation: str | Activation,
    *,
    plan=None,
) -> tuple[np.ndarray, int]:
    """Eq. 27's T1/T2/T3 scheme over a binary factorized design.

    Exact only for additive activations (the caller may still run it
    with sigmoid/tanh to *measure* the deviation, which is the point of
    the exactness tests).  Returns the second-layer activations and the
    multiplication count.

    Callers holding the batch's :class:`~repro.fx.dedup.DedupPlan`
    pass it via ``plan=`` — the same keyword the serving predictors
    take — and the reused terms are gathered through the plan instead
    of the design's group index (identical values, no second dedup
    anywhere in sight).
    """
    activation = get_activation(activation)
    if design.num_dimensions != 1:
        raise ModelError(
            "the second-layer analysis follows the paper's binary-join "
            f"exposition; got q={design.num_dimensions}"
        )
    if plan is not None:
        if not plan.matches(design.n, design.num_dimensions):
            raise ModelError(
                f"dedup plan describes {plan.rows} rows × "
                f"{plan.num_dimensions} dimensions, the design has "
                f"{design.n} rows × {design.num_dimensions}"
            )
        group = plan.dims[0]
    else:
        group = design.groups[0]
    layout = design.layout
    weight_parts = layout.split_columns(first.weights)
    m = design.dim_blocks[0].shape[0]
    n = design.n
    n_h = first.n_out
    n_l = second.n_out
    d_s = layout.sizes[0]
    d_r = layout.sizes[1]

    # T1 per fact tuple; T2 per distinct dimension tuple (+ layer-1 bias,
    # which the paper folds into the reused term).
    t1 = design.fact_block @ weight_parts[0].T                 # (n, n_h)
    t2 = design.dim_blocks[0] @ weight_parts[1].T + first.bias  # (m, n_h)
    # T3 per distinct dimension tuple: Σ_j w⁽²⁾ f(T2) + b⁽²⁾.
    t3 = activation(t2) @ second.weights.T + second.bias        # (m, n_l)
    second_pre = activation(t1) @ second.weights.T + group.gather(t3)
    outputs = activation(second_pre)
    mults = (
        n * n_h * d_s        # T1
        + m * n_h * d_r      # T2 (reused)
        + m * n_l * n_h      # T3 (reused)
        + n * n_l * n_h      # f(T1) · W⁽²⁾ per fact tuple
    )
    return outputs, mults


def compare_second_layer(
    design: FactorizedDesign,
    first: DenseLayer,
    second: DenseLayer,
    activation: str | Activation,
    *,
    plan=None,
) -> SecondLayerOutputs:
    """Run both paths and report values + measured multiplication counts.

    For additive activations ``max_deviation`` is ~0 while the reused
    path still performs *more* multiplications whenever ``m·n_l·n_h``
    exceeds the layer-1 savings — the paper's Section VI-A2 conclusion.
    ``plan=`` threads a batch's dedup plan through to the reuse path.
    """
    activation = get_activation(activation)
    standard, standard_mults = second_layer_standard(
        design, first, second, activation
    )
    reused, reused_mults = second_layer_with_reuse(
        design, first, second, activation, plan=plan
    )
    return SecondLayerOutputs(
        standard=standard,
        reused=reused,
        standard_multiplications=standard_mults,
        reused_multiplications=reused_mults,
    )
