"""Gaussian mixture models over normalized data (Section V).

Public surface: the parameter container and inference model, the EM
configuration/result types, the EM driver and its one engine (the
three training strategies are :func:`repro.core.training.train`).  The
analytic cost models of Sections V-A/V-B live in :mod:`repro.fx.costs`.
"""

from repro.gmm.base import EMConfig, GMMFitResult, run_em
from repro.gmm.engines import FactorizedEMEngine
from repro.gmm.init import initial_params, kmeans_plusplus_centers
from repro.gmm.model import (
    ComponentPrecisions,
    GaussianMixtureModel,
    GMMParams,
    log_responsibilities,
)

__all__ = [
    "ComponentPrecisions",
    "EMConfig",
    "FactorizedEMEngine",
    "GMMFitResult",
    "GMMParams",
    "GaussianMixtureModel",
    "initial_params",
    "kmeans_plusplus_centers",
    "log_responsibilities",
    "run_em",
]
