"""The three-pass EM driver, kept as a test-only reference.

This is :func:`repro.gmm.base.run_em` as it stood while it followed
Algorithm 1 literally: pass 1 computes and retains ``γ`` per batch,
pass 2 accumulates ``Sum_µ``, pass 3 accumulates ``Sum_Σ`` about the
*updated* means.  The library driver walks the join once per iteration
(``Sum_Σ`` about the old means, corrected afterwards);
``tests/gmm/test_one_pass_em.py`` holds it to this reference.  Patch it
in with ``monkeypatch.setattr(repro.core.training, "run_em", run_em)``.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from repro.errors import ConvergenceWarning, ModelError
from repro.gmm.base import EMConfig, EMEngine, GMMFitResult
from repro.gmm.init import initial_params
from repro.gmm.model import ComponentPrecisions, GMMParams
from repro.obs.training import TrainingRecorder


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
