"""Shared EM driver for the three GMM training strategies.

Algorithm 1 of the paper structures every EM iteration as three passes
over the joined data: one pass computing responsibilities (E-step), one
accumulating ``Sum_µ``, and one accumulating ``Sum_Σ``.  M-GMM, S-GMM
and F-GMM share that control flow and differ only in (a) where batches
come from and (b) how the per-batch numeric kernels are evaluated.
This module holds the control flow; the kernels live in
:mod:`repro.gmm.engines`.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.errors import ConvergenceWarning, ModelError
from repro.gmm.init import DEFAULT_INIT_SAMPLE, initial_params
from repro.gmm.model import ComponentPrecisions, GMMParams
from repro.obs.training import TrainingRecorder
from repro.storage.iostats import IOSnapshot


@dataclass(frozen=True)
class EMConfig:
    """Knobs of the EM training loop (shared by all strategies)."""

    n_components: int = 5
    max_iter: int = 10
    tol: float = 1e-4
    reg_covar: float = 1e-6
    seed: int = 0
    init_method: str = "kmeans++"
    init_sample_size: int = DEFAULT_INIT_SAMPLE

    def __post_init__(self) -> None:
        if self.n_components <= 0:
            raise ModelError(
                f"n_components must be positive, got {self.n_components}"
            )
        if self.max_iter <= 0:
            raise ModelError(f"max_iter must be positive, got {self.max_iter}")
        if self.tol < 0:
            raise ModelError(f"tol must be non-negative, got {self.tol}")


@dataclass
class GMMFitResult:
    """Everything a training run produced, for analysis and benchmarks."""

    algorithm: str
    params: GMMParams
    log_likelihood_history: list[float]
    n_iter: int
    converged: bool
    wall_time_seconds: float
    estep_seconds: float
    mstep_seconds: float
    io: IOSnapshot | None = None
    extra: dict = field(default_factory=dict)

    @property
    def final_log_likelihood(self) -> float:
        if not self.log_likelihood_history:
            raise ModelError("no iterations were run")
        return self.log_likelihood_history[-1]


class EMEngine(Protocol):
    """Numeric kernels one strategy plugs into the shared EM driver.

    ``batches(pass_index)`` yields the joined data in the strategy's
    batch representation; the three kernel methods evaluate Eq. 2, the
    ``µ`` numerator of Eq. 3, and the ``Σ`` numerator of Eq. 4 on one
    batch.
    """

    n_rows: int
    n_features: int

    def batches(self, pass_index: int):  # pragma: no cover - protocol
        ...

    def init_sample(self, max_rows: int) -> np.ndarray:  # pragma: no cover
        ...

    def estep_batch(
        self,
        batch,
        params: GMMParams,
        precisions: ComponentPrecisions,
    ) -> tuple[np.ndarray, np.ndarray]:  # pragma: no cover - protocol
        ...

    def mu_accumulate_batch(
        self, batch, gamma: np.ndarray
    ) -> np.ndarray:  # pragma: no cover - protocol
        ...

    def sigma_accumulate_batch(
        self, batch, gamma: np.ndarray, means: np.ndarray
    ) -> np.ndarray:  # pragma: no cover - protocol
        ...


def run_em(
    engine: EMEngine,
    config: EMConfig,
    *,
    algorithm: str,
    initial: GMMParams | None = None,
    telemetry=None,
) -> GMMFitResult:
    """Algorithm 1's outer loop, strategy-independent.

    Per iteration: pass 1 computes and retains ``γ`` per batch (lines
    4–8), pass 2 accumulates ``Sum_µ`` (lines 10–15), pass 3 accumulates
    ``Sum_Σ`` (lines 16–21); ``π`` needs no data (line 22).  Convergence
    is declared when the per-tuple mean log-likelihood (Eq. 6) changes
    by less than ``tol``.

    The :class:`~repro.obs.training.TrainingRecorder` the driver holds
    supplies ``result.extra`` — the run's dedup counters (the same
    ``dedup_ratio`` the serving runtime reports per model) plus
    ``iteration_seconds`` / ``dedup_ratio_series`` — and streams the
    same series into ``telemetry`` (see :func:`repro.obs.as_telemetry`)
    under the ``algorithm`` label.
    """
    start = time.perf_counter()
    estep_seconds = 0.0
    mstep_seconds = 0.0
    recorder = TrainingRecorder(algorithm, telemetry)

    if initial is not None:
        params = initial.copy()
    else:
        sample = engine.init_sample(config.init_sample_size)
        params = initial_params(
            sample,
            config.n_components,
            seed=config.seed,
            method=config.init_method,
            reg_covar=config.reg_covar,
        )
    if params.n_features != engine.n_features:
        raise ModelError(
            f"initial params have {params.n_features} features, "
            f"data has {engine.n_features}"
        )

    n = engine.n_rows
    d = engine.n_features
    history: list[float] = []
    converged = False
    iterations = 0

    for iteration in range(config.max_iter):
        iterations = iteration + 1
        iter_tick = time.perf_counter()
        precisions = ComponentPrecisions(
            params.covariances, config.reg_covar
        )

        # E-step: one pass, responsibilities retained per batch.
        tick = time.perf_counter()
        gammas: list[np.ndarray] = []
        log_likelihood = 0.0
        for batch in recorder.observed(engine.batches(3 * iteration)):
            gamma, batch_ll = engine.estep_batch(batch, params, precisions)
            gammas.append(gamma)
            log_likelihood += float(batch_ll.sum())
        estep_seconds += time.perf_counter() - tick

        # M-step pass 1: Sum_µ and the component masses N_k.
        tick = time.perf_counter()
        component_mass = np.zeros(config.n_components)
        for gamma in gammas:
            component_mass += gamma.sum(axis=0)
        if np.any(component_mass <= 0):
            raise ModelError(
                "a mixture component collapsed to zero mass; "
                "reduce n_components or change the seed"
            )
        mu_sums = np.zeros((config.n_components, d))
        for batch, gamma in zip(
            recorder.observed(engine.batches(3 * iteration + 1)), gammas
        ):
            mu_sums += engine.mu_accumulate_batch(batch, gamma)
        new_means = mu_sums / component_mass[:, None]

        # M-step pass 2: Sum_Σ with the *updated* means (Algorithm 1
        # updates µ_k on line 15 before the Σ pass begins).
        sigma_sums = np.zeros((config.n_components, d, d))
        for batch, gamma in zip(
            recorder.observed(engine.batches(3 * iteration + 2)), gammas
        ):
            sigma_sums += engine.sigma_accumulate_batch(
                batch, gamma, new_means
            )
        new_covariances = sigma_sums / component_mass[:, None, None]
        new_weights = component_mass / n
        params = GMMParams(new_weights, new_means, new_covariances)
        mstep_seconds += time.perf_counter() - tick

        history.append(log_likelihood)
        recorder.step_done(time.perf_counter() - iter_tick)
        if iteration > 0:
            delta = abs(history[-1] - history[-2]) / max(n, 1)
            if delta < config.tol:
                converged = True
                break

    if not converged and config.tol > 0:
        warnings.warn(
            f"{algorithm} stopped after {iterations} iterations without "
            f"meeting tol={config.tol}",
            ConvergenceWarning,
            stacklevel=2,
        )

    return GMMFitResult(
        algorithm=algorithm,
        params=params,
        log_likelihood_history=history,
        n_iter=iterations,
        converged=converged,
        wall_time_seconds=time.perf_counter() - start,
        estep_seconds=estep_seconds,
        mstep_seconds=mstep_seconds,
        extra=recorder.extra("iteration_seconds"),
    )
