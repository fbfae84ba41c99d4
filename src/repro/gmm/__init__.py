"""Gaussian mixture models over normalized data (Section V).

Public surface: the parameter container and inference model, the EM
configuration/result types and the three training strategies.  The
analytic cost models of Sections V-A/V-B live in :mod:`repro.fx.costs`.
"""

from repro.gmm.algorithms import (
    F_GMM,
    GMM_ALGORITHMS,
    M_GMM,
    S_GMM,
    fit_f_gmm,
    fit_m_gmm,
    fit_s_gmm,
)
from repro.gmm.base import EMConfig, GMMFitResult, run_em
from repro.gmm.engines import DenseEMEngine, FactorizedEMEngine
from repro.gmm.init import initial_params, kmeans_plusplus_centers
from repro.gmm.model import (
    ComponentPrecisions,
    GaussianMixtureModel,
    GMMParams,
    log_responsibilities,
)

__all__ = [
    "ComponentPrecisions",
    "DenseEMEngine",
    "EMConfig",
    "F_GMM",
    "FactorizedEMEngine",
    "GMMFitResult",
    "GMMParams",
    "GMM_ALGORITHMS",
    "GaussianMixtureModel",
    "M_GMM",
    "S_GMM",
    "fit_f_gmm",
    "fit_m_gmm",
    "fit_s_gmm",
    "initial_params",
    "kmeans_plusplus_centers",
    "log_responsibilities",
    "run_em",
]
