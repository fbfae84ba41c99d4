"""Activation functions and their additivity properties.

Section VI-A2 hinges on whether an activation satisfies the Cauchy
functional equation ``f(x + y) = f(x) + f(y)``: only *additive*
activations permit exact reuse of partial pre-activations beyond the
first layer.  Sigmoid and tanh are not additive; ReLU is additive only
when both operands share a sign; the identity (linear) activation is
the additive case.  Each activation here exposes both the calculus
(forward/derivative) needed by backpropagation and the additivity
predicate needed by the second-layer analysis.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


class Activation:
    """Base class: differentiable elementwise nonlinearity."""

    name: str = "abstract"
    #: True iff f(x+y) = f(x)+f(y) for all reals (Cauchy equation).
    is_additive: bool = False

    def __call__(self, pre_activation: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, pre_activation: np.ndarray) -> np.ndarray:
        """df/da evaluated at the pre-activation values."""
        raise NotImplementedError

    def derivative_from_output(self, output: np.ndarray) -> np.ndarray:
        """df/da expressed through the already-computed ``f(a)``.

        Backpropagation caches the forward activations, so expressing
        the derivative through them (σ'(a) = h(1−h), tanh'(a) = 1−h²,
        …) avoids re-evaluating the nonlinearity.  Mathematically
        identical to :meth:`derivative`; backpropagation uses only this
        form, so every activation implements it.
        """
        raise NotImplementedError

    def additive_violation(
        self, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """``|f(x+y) − f(x) − f(y)|`` — zero wherever reuse is exact."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return np.abs(self(x + y) - self(x) - self(y))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class Identity(Activation):
    """Linear activation — the additive case enabling Eq. 27's reuse."""

    name = "identity"
    is_additive = True

    def __call__(self, pre_activation: np.ndarray) -> np.ndarray:
        return np.asarray(pre_activation, dtype=np.float64)

    def derivative(self, pre_activation: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(pre_activation, dtype=np.float64))

    def derivative_from_output(self, output: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(output, dtype=np.float64))


class Sigmoid(Activation):
    """``σ(a) = 1 / (1 + e^{−a})`` — not additive (Section VI-A2).

    Evaluated as ``½(1 + tanh(a/2))``: four passes over one output
    buffer with one ``tanh``, where the overflow-safe ``exp`` form needs
    seven passes, two ``exp``\\ s and a second buffer.  Nothing
    overflows, and the absolute error stays below ``2⁻⁵³``
    (``tests/nn/test_activations.py``).  The price is relative accuracy
    in the negative tail — ``1 + tanh`` cancels there, so the relative
    error reaches ``2e-8`` at ``a = −20`` and σ rounds to 0 below
    ``a ≈ −38`` — which a hidden unit does not feel: it feeds a
    weighted sum and ``h(1−h)``, where absolute error is what counts.
    """

    name = "sigmoid"
    is_additive = False

    def __call__(self, pre_activation: np.ndarray) -> np.ndarray:
        a = np.asarray(pre_activation, dtype=np.float64)
        out = np.multiply(a, 0.5, out=np.empty_like(a))
        np.tanh(out, out=out)
        out += 1.0
        out *= 0.5
        return out

    def derivative(self, pre_activation: np.ndarray) -> np.ndarray:
        return self.derivative_from_output(self(pre_activation))

    def derivative_from_output(self, output: np.ndarray) -> np.ndarray:
        derivative = 1.0 - np.asarray(output, dtype=np.float64)
        derivative *= output
        return derivative


class Tanh(Activation):
    """Hyperbolic tangent — not additive."""

    name = "tanh"
    is_additive = False

    def __call__(self, pre_activation: np.ndarray) -> np.ndarray:
        return np.tanh(np.asarray(pre_activation, dtype=np.float64))

    def derivative(self, pre_activation: np.ndarray) -> np.ndarray:
        return self.derivative_from_output(self(pre_activation))

    def derivative_from_output(self, output: np.ndarray) -> np.ndarray:
        output = np.asarray(output, dtype=np.float64)
        derivative = np.multiply(output, output, out=np.empty_like(output))
        return np.subtract(1.0, derivative, out=derivative)


class ReLU(Activation):
    """``max(0, a)`` — piecewise linear.

    The paper observes ReLU behaves additively exactly when the two
    partial sums ``T1`` and ``T2`` share a sign; :meth:`additive_on`
    exposes that predicate for the second-layer analysis.
    """

    name = "relu"
    is_additive = False

    def __call__(self, pre_activation: np.ndarray) -> np.ndarray:
        return np.maximum(
            np.asarray(pre_activation, dtype=np.float64), 0.0
        )

    def derivative(self, pre_activation: np.ndarray) -> np.ndarray:
        a = np.asarray(pre_activation, dtype=np.float64)
        return np.greater(a, 0.0, out=np.empty_like(a))

    def derivative_from_output(self, output: np.ndarray) -> np.ndarray:
        # h = max(0, a) > 0 exactly when a > 0, so the indicator is
        # recoverable from the output.
        return self.derivative(output)

    @staticmethod
    def additive_on(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """True where ``relu(x+y) == relu(x)+relu(y)`` is guaranteed —
        i.e. where the operands share a sign."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return (x * y) >= 0


_REGISTRY: dict[str, type[Activation]] = {
    cls.name: cls for cls in (Identity, Sigmoid, Tanh, ReLU)
}


def get_activation(spec: str | Activation) -> Activation:
    """Resolve an activation by name or pass an instance through."""
    if isinstance(spec, Activation):
        return spec
    try:
        return _REGISTRY[spec]()
    except KeyError:
        raise ModelError(
            f"unknown activation {spec!r}; have {sorted(_REGISTRY)}"
        ) from None


def available_activations() -> list[str]:
    return sorted(_REGISTRY)
