"""Dense (fully connected) layers.

The paper's network is a sequence of linear transformations
``a_j = Σ_i w_ji x_i + b_j`` followed by an elementwise activation
(Section III-B).  Weight layout follows the paper: ``W`` is
``(n_out, n_in)`` with ``w[j, i]`` the weight from input ``i`` to unit
``j``; batches are row-major, so ``A = X Wᵀ + b``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError


@dataclass
class LayerGrads:
    """Gradients of one layer's parameters for a batch."""

    weights: np.ndarray
    bias: np.ndarray


def accumulate(
    total: list[LayerGrads] | None, grads: list[LayerGrads]
) -> list[LayerGrads]:
    """``total + grads`` in ``total``'s arrays (the first summand is
    adopted).  Gradients under one shared ``normalization`` add over any
    partition of the rows: a batch's tiles, a full-batch epoch's batches.
    """
    if total is None:
        return grads
    for acc, g in zip(total, grads):
        acc.weights += g.weights
        acc.bias += g.bias
    return total


class DenseLayer:
    """One linear layer ``a = W x + b``."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray) -> None:
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ModelError(
                f"weights must be 2-D, got {self.weights.shape}"
            )
        if self.bias.shape != (self.weights.shape[0],):
            raise ModelError(
                f"bias shape {self.bias.shape} != ({self.weights.shape[0]},)"
            )

    @classmethod
    def initialize(
        cls, n_in: int, n_out: int, rng: np.random.Generator
    ) -> "DenseLayer":
        """Glorot-style initialization; bias starts at zero."""
        if n_in <= 0 or n_out <= 0:
            raise ModelError(
                f"layer dimensions must be positive, got {n_in}x{n_out}"
            )
        scale = np.sqrt(2.0 / (n_in + n_out))
        weights = rng.normal(scale=scale, size=(n_out, n_in))
        return cls(weights, np.zeros(n_out))

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Pre-activations for a batch: ``(n, n_in) → (n, n_out)``."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape[-1] != self.n_in:
            raise ModelError(
                f"inputs have width {inputs.shape[-1]}, layer expects "
                f"{self.n_in}"
            )
        return inputs @ self.weights.T + self.bias

    def backward(
        self, grad_pre: np.ndarray, inputs: np.ndarray
    ) -> tuple[LayerGrads, np.ndarray]:
        """Parameter gradients and the gradient w.r.t. the inputs.

        ``grad_pre`` is ``∂E/∂a`` at this layer's pre-activations; the
        weight gradient is the paper's ``∂E/∂w = ∂E/∂a · xᵀ`` (Eq. 28).
        A one-unit layer's input gradient is an outer product, each
        entry one multiplication: broadcast it instead of a GEMM (same
        bits).
        """
        grads = self.parameter_grads(grad_pre, inputs)
        if self.n_out == 1:
            return grads, grad_pre * self.weights
        return grads, grad_pre @ self.weights

    def parameter_grads(
        self, grad_pre: np.ndarray, inputs: np.ndarray
    ) -> LayerGrads:
        """Just the parameter gradients (input gradient not needed at
        the first layer)."""
        return LayerGrads(
            weights=grad_pre.T @ inputs, bias=grad_pre.sum(axis=0)
        )

    def apply_grads(self, grads: LayerGrads, learning_rate: float) -> None:
        """One SGD step: ``θ ← θ − η ∂E/∂θ``."""
        self.weights -= learning_rate * grads.weights
        self.bias -= learning_rate * grads.bias

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weights.copy(), self.bias.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DenseLayer({self.n_in}→{self.n_out})"
