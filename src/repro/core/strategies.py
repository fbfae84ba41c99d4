"""Execution-strategy names shared by training and serving.

The paper names its three training algorithms M- (materialize), S-
(stream), and F- (factorize); the public API accepts either the friendly
or the paper spelling.  Serving reuses the same vocabulary but only two
of the strategies make sense at inference time: a prediction is either
computed over hand-materialized wide rows or factorized over the base
relations — there is no repeated pass for "streaming" to amortize.

This module owns the canonical names and the resolvers so that
:mod:`repro.core.api` (training) and :mod:`repro.serve` (inference) can
share them without importing each other.
"""

from __future__ import annotations

from repro.errors import ModelError

MATERIALIZED = "materialized"
STREAMING = "streaming"
FACTORIZED = "factorized"
# Training-only: resolve materialized-vs-factorized from the one cost
# model (repro.fx.costs) against the workload's actual
# cardinalities and widths.  Serving rejects it — the runtime's
# per-batch "adaptive" planning is the inference-time equivalent.
AUTO = "auto"

_STRATEGY_ALIASES = {
    "auto": AUTO,
    "materialized": MATERIALIZED,
    "m": MATERIALIZED,
    "m-gmm": MATERIALIZED,
    "m-nn": MATERIALIZED,
    "streaming": STREAMING,
    "s": STREAMING,
    "s-gmm": STREAMING,
    "s-nn": STREAMING,
    "factorized": FACTORIZED,
    "f": FACTORIZED,
    "f-gmm": FACTORIZED,
    "f-nn": FACTORIZED,
}

SERVING_STRATEGIES = (MATERIALIZED, FACTORIZED)


def resolve_strategy(algorithm: str) -> str:
    """Normalize an algorithm/strategy name to its canonical form."""
    try:
        return _STRATEGY_ALIASES[algorithm.lower()]
    except KeyError:
        raise ModelError(
            f"unknown algorithm {algorithm!r}; use one of "
            f"{sorted(set(_STRATEGY_ALIASES.values()))}"
        ) from None


def resolve_serving_strategy(strategy: str) -> str:
    """Normalize a serving-strategy name (same aliases as training).

    Serving supports ``"materialized"`` (expand each request to wide
    joined rows) and ``"factorized"`` (score over the normalized form);
    ``"streaming"`` and ``"auto"`` are training-only notions and are
    rejected with a clear error (the runtime's ``"adaptive"`` strategy
    is the serving-side analogue of ``"auto"``).
    """
    resolved = resolve_strategy(strategy)
    if resolved not in SERVING_STRATEGIES:
        raise ModelError(
            f"strategy {strategy!r} is training-only; serving supports "
            f"{list(SERVING_STRATEGIES)}"
        )
    return resolved
