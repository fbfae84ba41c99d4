"""High-level API: one-call model training and serving over normalized
relations."""

from repro.core.api import (
    GMMResult,
    NNResult,
    StrategyComparison,
    compare_strategies,
    fit_gmm,
    fit_nn,
    predict_gmm,
    predict_nn,
    serve,
)
from repro.core.strategies import (
    AUTO,
    FACTORIZED,
    MATERIALIZED,
    SERVING_STRATEGIES,
    STREAMING,
    resolve_serving_strategy,
    resolve_strategy,
)

__all__ = [
    "AUTO",
    "FACTORIZED",
    "GMMResult",
    "MATERIALIZED",
    "NNResult",
    "SERVING_STRATEGIES",
    "STREAMING",
    "StrategyComparison",
    "compare_strategies",
    "fit_gmm",
    "fit_nn",
    "predict_gmm",
    "predict_nn",
    "resolve_serving_strategy",
    "resolve_strategy",
    "serve",
]
