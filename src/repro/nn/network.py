"""The multilayer perceptron and its backpropagation, with an explicit
seam at the first layer.

Everything the paper factorizes happens between the input and the first
hidden layer (Sections VI-A1 and VI-A3); computation from the first
hidden activation upward is *identical* across M-/S-/F-NN.  The network
therefore exposes that seam directly:

* :meth:`MLP.forward_from_first_preactivation` — run the net given the
  first layer's pre-activations (however they were produced);
* :meth:`MLP.backward_to_first_preactivation` — backpropagate down to
  ``∂E/∂a⁽¹⁾``, leaving the first layer's parameter gradients to the
  caller (dense or factorized).

The training engine's factorized first layer plugs into this seam, so
exactness of F-NN reduces to exactness of the first-layer kernels
against :meth:`MLP.dense_gradients`, the same step over wide rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.linalg.blocks import TILE_BYTES
from repro.nn.activations import Activation, get_activation
from repro.nn.layers import DenseLayer, LayerGrads, accumulate
from repro.nn.losses import HalfMSE


@dataclass
class ForwardCache:
    """Intermediate values of one forward pass, reused by backward."""

    activations: list[np.ndarray]       # h^(l) per hidden layer


class MLP:
    """A feedforward network: hidden layers + linear output layer.

    ``sizes = (d, n_h, …, n_out)``; hidden layers share one activation
    (the paper's setting); the output layer is linear and pairs with
    the paper's one loss, :class:`~repro.nn.losses.HalfMSE`.
    """

    def __init__(
        self,
        sizes: tuple[int, ...],
        *,
        activation: str | Activation = "sigmoid",
        seed: int = 0,
    ) -> None:
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2:
            raise ModelError(
                f"need at least input and output sizes, got {sizes}"
            )
        self.sizes = sizes
        self.activation = get_activation(activation)
        self.loss = HalfMSE()
        rng = np.random.default_rng(seed)
        self.layers = [
            DenseLayer.initialize(sizes[i], sizes[i + 1], rng)
            for i in range(len(sizes) - 1)
        ]

    @property
    def n_inputs(self) -> int:
        return self.sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.sizes[-1]

    @property
    def first_layer(self) -> DenseLayer:
        return self.layers[0]

    def copy(self) -> "MLP":
        clone = MLP.__new__(MLP)
        clone.sizes = self.sizes
        clone.activation = self.activation
        clone.loss = self.loss
        clone.layers = [layer.copy() for layer in self.layers]
        return clone

    # -- forward -------------------------------------------------------------

    def forward_from_first_preactivation(
        self, first_pre: np.ndarray
    ) -> tuple[np.ndarray, ForwardCache]:
        """Continue the forward pass given ``a⁽¹⁾`` (the factorization
        seam of Section VI-A1)."""
        cache = ForwardCache(activations=[])
        hidden = self.activation(first_pre)
        cache.activations.append(hidden)
        for layer in self.layers[1:-1]:
            hidden = self.activation(layer.forward(hidden))
            cache.activations.append(hidden)
        if len(self.layers) == 1:
            # Degenerate single-layer network: linear map, no hidden.
            return first_pre, cache
        output = self.layers[-1].forward(hidden)
        return output, cache

    def forward(
        self, inputs: np.ndarray
    ) -> tuple[np.ndarray, ForwardCache]:
        """Full forward pass from dense inputs."""
        first_pre = self.first_layer.forward(inputs)
        return self.forward_from_first_preactivation(first_pre)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Network outputs for dense inputs (no caches kept)."""
        outputs, _ = self.forward(np.asarray(inputs, dtype=np.float64))
        return outputs

    # -- backward ------------------------------------------------------------

    def backward_to_first_preactivation(
        self,
        cache: ForwardCache,
        grad_output: np.ndarray,
    ) -> tuple[list[LayerGrads | None], np.ndarray]:
        """Backpropagate to ``∂E/∂a⁽¹⁾`` (Section VI-A3's seam).

        Returns per-layer parameter gradients for layers 2..L (entry 0
        is ``None`` — the first layer's gradients depend on the input
        representation and are the engines' job) plus ``∂E/∂a⁽¹⁾``.
        """
        n_layers = len(self.layers)
        grads: list[LayerGrads | None] = [None] * n_layers
        grad_pre = grad_output
        for index in range(n_layers - 1, 0, -1):
            inputs = cache.activations[index - 1]
            grads[index], grad_pre = self.layers[index].backward(
                grad_pre, inputs
            )
            # The forward pass cached f(a); expressing f'(a) through it
            # avoids re-evaluating the nonlinearity (in place: backward's
            # matmul made grad_pre).
            grad_pre *= self.activation.derivative_from_output(inputs)
        return grads, grad_pre

    # -- the training step -------------------------------------------------

    @property
    def tile_rows(self) -> int:
        """Rows per tile of :meth:`tiled_gradients`."""
        return max(1, TILE_BYTES // (8 * max(self.sizes[1:])))

    def tiled_gradients(
        self, targets: np.ndarray, normalization: int | None,
        first_pre, first_grads,
    ) -> tuple[float, list[LayerGrads]]:
        """Loss and all parameter gradients of a batch, as the sum over
        its row tiles.

        ``first_pre(rows)`` yields ``a⁽¹⁾`` for a slice of the batch and
        ``first_grads(rows, ∂E/∂a⁽¹⁾)`` the first layer's gradients for
        it — the seam's two halves, dense or factorized.  Elementwise
        passes run on blocks that stay in cache, and a step holds
        O(tile · n_h) however long the batch.
        """
        n, tile = targets.shape[0], self.tile_rows
        normalization = normalization or n
        loss, total = 0.0, None
        # An empty batch still makes one pass, so the loss rejects it.
        for start in range(0, max(n, 1), tile):
            rows = slice(start, start + tile)
            outputs, cache = self.forward_from_first_preactivation(
                first_pre(rows)
            )
            loss += self.loss.value(outputs, targets[rows], normalization)
            grads, grad_first_pre = self.backward_to_first_preactivation(
                cache,
                self.loss.gradient(outputs, targets[rows], normalization),
            )
            grads[0] = first_grads(rows, grad_first_pre)
            total = accumulate(total, grads)  # type: ignore[arg-type]
        return loss, total  # type: ignore[return-value]

    def loss_value(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        return self.loss.value(self.predict(inputs), targets)

    def dense_gradients(
        self, inputs: np.ndarray, targets: np.ndarray,
        normalization: int | None = None,
    ) -> tuple[float, list[LayerGrads]]:
        """Loss and all parameter gradients for a dense batch."""
        first = self.first_layer
        return self.tiled_gradients(
            targets, normalization,
            lambda rows: first.forward(inputs[rows]),
            lambda rows, grad: first.parameter_grads(grad, inputs[rows]),
        )

    def apply_grads(
        self, grads: list[LayerGrads], learning_rate: float
    ) -> None:
        for layer, layer_grads in zip(self.layers, grads):
            layer.apply_grads(layer_grads, learning_rate)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arch = "→".join(str(s) for s in self.sizes)
        return f"MLP({arch}, activation={self.activation.name})"


def build_model(n_features: int, config) -> MLP:
    """The architecture all three strategies share: ``d`` inputs, the
    hidden layers of ``config`` (an :class:`~repro.nn.base.NNConfig`),
    one linear output unit."""
    sizes = (n_features, *config.hidden_sizes, 1)
    return MLP(sizes, activation=config.activation, seed=config.seed)
