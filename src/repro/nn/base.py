"""Shared training driver for the three NN strategies.

Mirrors :mod:`repro.gmm.base`: M-NN, S-NN, F-NN share the epoch loop
and differ only in batch provenance and first-layer kernels (the
engines).  Training supports the paper's three regimes (Section VI):

* ``batch_mode="full"`` — batch gradient descent: gradients accumulate
  over the whole pass, one parameter update per epoch.  All three
  strategies produce *identical* models in this mode (exactness tests).
* ``batch_mode="per-batch"`` — mini-batch gradient descent with one
  update per access-path batch (per dimension block / page block);
  S-NN and F-NN see identical batches and stay exactly equal.
* ``shuffle=True`` — the paper's SGD protocol: permute the dimension
  keys per epoch while probing the fact relation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import ModelError
from repro.nn.activations import get_activation
from repro.nn.layers import LayerGrads, accumulate
from repro.nn.network import MLP
from repro.obs.training import TrainingRecorder
from repro.storage.iostats import IOSnapshot


@dataclass(frozen=True)
class NNConfig:
    """Knobs of the NN training loop (shared by all strategies).

    Every network trains on the paper's one loss, half-MSE (Section
    VI-A3).  A bad value is refused here, before a fit opens its join:
    an unknown ``activation``, a non-finite or non-positive
    ``learning_rate``.
    """

    hidden_sizes: tuple[int, ...] = (50,)
    activation: str = "sigmoid"
    epochs: int = 10
    learning_rate: float = 0.05
    batch_mode: str = "per-batch"
    shuffle: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.hidden_sizes:
            raise ModelError("at least one hidden layer is required")
        if any(h <= 0 for h in self.hidden_sizes):
            raise ModelError(
                f"hidden sizes must be positive, got {self.hidden_sizes}"
            )
        if self.epochs <= 0:
            raise ModelError(f"epochs must be positive, got {self.epochs}")
        get_activation(self.activation)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ModelError(
                f"learning_rate must be positive and finite, "
                f"got {self.learning_rate}"
            )
        if self.batch_mode not in ("full", "per-batch"):
            raise ModelError(
                f"batch_mode must be 'full' or 'per-batch', "
                f"got {self.batch_mode!r}"
            )


@dataclass
class NNFitResult:
    """Outcome of one training run."""

    algorithm: str
    model: MLP
    loss_history: list[float]
    wall_time_seconds: float
    io: IOSnapshot | None = None
    extra: dict = field(default_factory=dict)

    @property
    def final_loss(self) -> float:
        if not self.loss_history:
            raise ModelError("no epochs were run")
        return self.loss_history[-1]


class NNEngine(Protocol):
    """Batch kernels one strategy plugs into the shared driver."""

    model: MLP
    n_rows: int

    def batches(self, epoch: int):  # pragma: no cover - protocol
        ...

    def batch_gradients(
        self, batch, normalization: int
    ) -> tuple[float, list[LayerGrads]]:  # pragma: no cover - protocol
        """Loss (already scaled by ``1/normalization``) and parameter
        gradients for one batch, without updating the model."""
        ...


def run_training(
    engine: NNEngine,
    config: NNConfig,
    *,
    algorithm: str,
    telemetry=None,
) -> NNFitResult:
    """The strategy-independent epoch loop.

    ``result.extra`` and the ``telemetry`` series come from the same
    :class:`~repro.obs.training.TrainingRecorder` the EM driver uses
    (dedup counters, ``epoch_seconds``, ``dedup_ratio_series``) — the
    training twin of the runtime's per-model ``dedup_ratio``.
    """
    start = time.perf_counter()
    history: list[float] = []
    n_total = engine.n_rows
    if n_total == 0:
        raise ModelError("the join produced no tuples to train on")
    recorder = TrainingRecorder(algorithm, telemetry)

    for epoch in range(config.epochs):
        epoch_tick = time.perf_counter()
        epoch_loss = 0.0
        if config.batch_mode == "full":
            accumulated: list[LayerGrads] | None = None
            for batch in recorder.observed(engine.batches(epoch)):
                loss, grads = engine.batch_gradients(batch, n_total)
                epoch_loss += loss
                accumulated = accumulate(accumulated, grads)
            if accumulated is None:
                raise ModelError("the access path yielded no batches")
            engine.model.apply_grads(accumulated, config.learning_rate)
        else:
            seen = 0
            for batch in recorder.observed(engine.batches(epoch)):
                loss, grads = engine.batch_gradients(batch, batch.n)
                engine.model.apply_grads(grads, config.learning_rate)
                epoch_loss += loss * batch.n
                seen += batch.n
            if seen == 0:
                raise ModelError("the access path yielded no batches")
            epoch_loss /= seen
        history.append(epoch_loss)
        recorder.step_done(time.perf_counter() - epoch_tick)

    return NNFitResult(
        algorithm=algorithm,
        model=engine.model,
        loss_history=history,
        wall_time_seconds=time.perf_counter() - start,
        extra=recorder.extra("epoch_seconds"),
    )
