"""The training loss.

The paper's backward propagation uses one error function, the mean
squared error ``E = 1/(2N) Σ (o − Y)²`` (Section VI-A3), on the
network's linear output; :class:`HalfMSE` is it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


class HalfMSE:
    """``E = 1/(2N) Σ_n (o_n − Y_n)²`` — the paper's error function.

    ``normalization`` overrides the ``1/N`` factor; the training driver
    passes the *total* row count when accumulating full-batch gradients
    across several access-path batches, keeping the result exactly equal
    to a single-batch computation.
    """

    name = "half_mse"

    @staticmethod
    def _check(outputs: np.ndarray, targets: np.ndarray) -> tuple:
        outputs = np.asarray(outputs, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if targets.ndim == 1:
            targets = targets[:, None]
        if outputs.shape != targets.shape:
            raise ModelError(
                f"outputs {outputs.shape} vs targets {targets.shape}"
            )
        if outputs.shape[0] == 0:
            raise ModelError("loss of an empty batch is undefined")
        return outputs, targets

    def value(
        self,
        outputs: np.ndarray,
        targets: np.ndarray,
        normalization: int | None = None,
    ) -> float:
        outputs, targets = self._check(outputs, targets)
        n = normalization or outputs.shape[0]
        return float(((outputs - targets) ** 2).sum() / (2.0 * n))

    def gradient(
        self,
        outputs: np.ndarray,
        targets: np.ndarray,
        normalization: int | None = None,
    ) -> np.ndarray:
        """``∂E/∂o``, shaped like ``outputs``."""
        outputs, targets = self._check(outputs, targets)
        n = normalization or outputs.shape[0]
        return (outputs - targets) / n
