"""Shared EM driver for the three GMM training strategies.

Algorithm 1 of the paper runs each EM iteration as three passes over
the joined data; :func:`run_em` makes them one join walk, one step per
batch.  M-GMM, S-GMM and F-GMM share that control flow and differ only
in (a) where batches come from and (b) how the per-batch numeric
kernels are evaluated.  This module holds the control flow; the kernels
live in :mod:`repro.gmm.engines`.
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
    """Knobs of the EM training loop (shared by all strategies).

    Every arm seeds from the same k-means++ draw over the first
    ``init_sample_size`` joined rows (:mod:`repro.gmm.init`).  A bad
    value is refused here, before a fit opens its join: a negative or
    NaN ``tol`` / ``reg_covar``, an ``init_sample_size`` below 1.
    """

    n_components: int = 5
    max_iter: int = 10
    tol: float = 1e-4
    reg_covar: float = 1e-6
    seed: int = 0
    init_sample_size: int = DEFAULT_INIT_SAMPLE

    def __post_init__(self) -> None:
        if self.n_components <= 0:
            raise ModelError(
                f"n_components must be positive, got {self.n_components}"
            )
        if self.max_iter <= 0:
            raise ModelError(f"max_iter must be positive, got {self.max_iter}")
        if not self.tol >= 0:
            raise ModelError(f"tol must be non-negative, got {self.tol}")
        if not self.reg_covar >= 0:
            raise ModelError(
                f"reg_covar must be non-negative, got {self.reg_covar}"
            )
        if self.init_sample_size < 1:
            raise ModelError(
                f"init_sample_size must be positive, "
                f"got {self.init_sample_size}"
            )


@dataclass
class GMMFitResult:
    """Everything a training run produced, for analysis and benchmarks;
    ``estep_seconds`` times the walks' steps, ``mstep_seconds`` the rest."""

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
    batch representation; ``step_batch`` evaluates Eq. 2 and the
    numerators of Eq. 3 and Eq. 4 on one batch: ``(Σγ, log-likelihood,
    Sum_µ, Sum_Σ about centre)``.
    """

    n_rows: int
    n_features: int

    def batches(self, pass_index: int):  # pragma: no cover - protocol
        ...

    def init_sample(self, max_rows: int) -> np.ndarray:  # pragma: no cover
        ...

    def step_batch(self, batch, params, precisions, centre):  # pragma: no cover
        ...


#: Re-walk ``Sum_Σ`` once ``δ_kj²`` leaves less than this of ``S_k,jj/N_k``.
CANCELLATION_LIMIT = 2.0**-26


def m_step(mass, mu_sums, sigma_sums, centre, n: int) -> GMMParams | None:
    """Algorithm 1's closed-form M-step from one walk's sums: ``π = N/n``
    (line 22), ``µ_k = Sum_µ,k / N_k``, ``Σ_k = S_k/N_k − δ_k δ_kᵀ`` with
    ``S_k`` taken about ``centre[k]`` and ``δ_k = µ_k − centre[k]`` (raw:
    ``reg_covar`` enters through the precisions) — ``None`` when that
    cancels past :data:`CANCELLATION_LIMIT`, so ``S`` must be about ``µ``."""
    if np.any(mass <= 0):
        raise ModelError(
            "a mixture component collapsed to zero mass; "
            "reduce n_components or change the seed"
        )
    means = mu_sums / mass[:, None]
    shift = means - centre
    moments = sigma_sums.diagonal(0, 1, 2) / mass[:, None]
    if np.any(moments - shift**2 < CANCELLATION_LIMIT * moments):
        return None
    covariances = sigma_sums / mass[:, None, None]
    covariances -= shift[:, :, None] * shift[:, None, :]
    return GMMParams(mass / n, means, covariances)


def run_em(
    engine: EMEngine,
    config: EMConfig,
    *,
    algorithm: str,
    initial: GMMParams | None = None,
    telemetry=None,
) -> GMMFitResult:
    """Algorithm 1's outer loop, strategy-independent, in one join walk
    per iteration: each batch's step yields its E-step (lines 4–8),
    ``Sum_µ`` (10–15) and ``Sum_Σ`` about the old means (16–21); then
    :func:`m_step`, unless its correction cancels and ``Sum_Σ`` is
    re-walked about the new means (``extra["covariance_rewalks"]``).
    Convergence is declared when the per-tuple mean log-likelihood
    (Eq. 6) changes by less than ``tol``.

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
    rewalks = 0

    for iteration in range(config.max_iter):
        iterations = iteration + 1
        iter_tick = time.perf_counter()
        precisions = ComponentPrecisions(
            params.covariances, config.reg_covar
        )

        # The one walk: E-step, Sum_µ and Sum_Σ about the old means.
        log_likelihood = 0.0
        component_mass = np.zeros(config.n_components)
        mu_sums = np.zeros((config.n_components, d))
        sigma_sums = np.zeros((config.n_components, d, d))
        for batch in recorder.observed(engine.batches(iteration)):
            tick = time.perf_counter()
            mass, batch_ll, mu, sigma = engine.step_batch(
                batch, params, precisions, params.means
            )
            estep_seconds += time.perf_counter() - tick
            component_mass += mass
            log_likelihood += batch_ll
            mu_sums += mu
            sigma_sums += sigma
        tick = time.perf_counter()
        solved = m_step(component_mass, mu_sums, sigma_sums, params.means, n)
        if solved is None:
            rewalks += 1
            new_means = mu_sums / component_mass[:, None]
            sigma_sums[:] = 0.0
            for batch in recorder.observed(engine.batches(iteration)):
                sigma_sums += engine.step_batch(
                    batch, params, precisions, new_means
                )[3]
            solved = m_step(component_mass, mu_sums, sigma_sums, new_means, n)
        params = solved
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
        extra=dict(recorder.extra("iteration_seconds"),
                   covariance_rewalks=rewalks),
    )
