"""Factorized inference: serve fitted models over normalized data.

Training-side factorization (this repo's core) never materializes the
join; this package extends the same guarantee to *serving*.  A
prediction request arrives in normalized form — fact features plus
foreign keys — and is scored either by hand-materializing the wide rows
(the baseline) or by gathering cached per-distinct-RID partial results
(the paper's reuse argument applied at inference time).  Both paths are
exact: they agree with the dense model on the joined rows, and both
consume one :class:`~repro.fx.dedup.DedupPlan` per request batch —
the same single-dedup contract training batches honour.

Layers (the execution core underneath is :mod:`repro.fx`):

* :mod:`~repro.serve.partials` — per-RID partial results and keyed
  dimension-row lookups;
* :mod:`~repro.serve.cache` — the partial-row cache, under one lock: no
  bound of its own (the store-wide budget's governor evicts, ranking
  victims LRU or TinyLFU), invalidation hooks for dimension-row
  updates;
* :mod:`~repro.serve.predictor` — exact factorized / materialized
  predictors per model family; factorized predictors draw their
  caches from a shared :class:`~repro.fx.store.PartialStore`, so
  fingerprint-identical models hold one resident copy;
* :mod:`~repro.serve.core` — the serving core: the one registration
  record and the one object that implements ``register`` /
  ``execute`` / ``invalidate`` / ``swap`` / ``close`` for every
  serving configuration (inline here; behind the thread or process
  runtime in :mod:`repro.runtime`);
* :mod:`~repro.serve.service` — ``ModelService``: the core called on
  the caller's thread, with throughput, I/O and store bookkeeping
  (``stats()``, ``cache_stats()``, ``store_stats()``), subscribed to
  catalog row-version events.

The inference-side operation counts the planner charges batches with
are the ``"serve"`` rows of :mod:`repro.fx.costs`.

Sizing, admission and invalidation semantics are documented in
``docs/operations.md``; the concurrent tier on top is
:mod:`repro.runtime`.
"""

import sys
import types

from repro.serve.cache import CacheStats, PartialCache
from repro.serve.partials import (
    DimensionLookup,
    GMMPartialBuilder,
    NNPartialBuilder,
)
from repro.serve.predictor import (
    FactorizedGMMPredictor,
    FactorizedNNPredictor,
    MaterializedGMMPredictor,
    MaterializedNNPredictor,
    make_predictor,
)
from repro.serve.service import ModelService, RegisteredModel, ServingStats

__all__ = [
    "CacheStats",
    "DimensionLookup",
    "FactorizedGMMPredictor",
    "FactorizedNNPredictor",
    "GMMPartialBuilder",
    "MaterializedGMMPredictor",
    "MaterializedNNPredictor",
    "ModelService",
    "NNPartialBuilder",
    "PartialCache",
    "RegisteredModel",
    "ServingStats",
    "make_predictor",
]


class _CallablePackage(types.ModuleType):
    """``repro.serve(db, …)`` is :func:`repro.core.api.serve`, and
    ``repro.serve`` is still this package: the attribute names one
    object, so ``import repro.serve.cache as x`` resolves."""

    def __call__(self, *args, **kwargs):
        from repro.core.api import serve    # imports this package

        return serve(*args, **kwargs)


sys.modules[__name__].__class__ = _CallablePackage
