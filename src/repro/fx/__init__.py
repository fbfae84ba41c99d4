"""repro.fx — the factorized execution core.

Everything the paper's trick needs at run time, implemented exactly
once and shared by training, serving, and the concurrent runtime:

* :mod:`repro.fx.dedup` — :class:`DedupPlan`: one ``(unique, inverse)``
  FK sort per batch per dimension, computed at batch assembly and
  threaded through planner and predictors — and, since the training
  refactor, through the join access paths, whose batches carry the
  plan into the GMM/NN engines (:class:`DedupCounter` reports the
  resulting ``dedup_ratio`` on every fit).  :func:`distinct_values`
  is the sanctioned dedup for everything that is not an FK column
  (page numbers, cache slots); ``np.unique`` exists nowhere else in the
  package, AST-enforced;
* :mod:`repro.fx.gather` — the dedup/gather engine: resolve a plan's
  distinct RIDs to partial rows through the caches, and expand them
  (or dimension rows) back to request rows;
* :mod:`repro.fx.store` — :class:`PartialStore`: dimension partials
  shared *across* registered models, keyed by
  ``(partial fingerprint, RID)``, so two models over the same join
  reuse each other's cached slabs; the one store class, in-process
  and (armed, over a shared-memory slab) in every process worker;
* :mod:`repro.fx.sharding` — :class:`ShardedPartialCache`, the one
  cache type the store hands out and a predictor holds: one
  :class:`~repro.serve.cache.PartialCache` per fingerprint under its
  single lock, which runs the store's governor after each batch;
* :mod:`repro.fx.costs` — the one cost model: every published count
  (Sections V-A/V-B/VI-A) stated once, one concrete
  :class:`CostModel` per ``(kind, phase)`` whose ``decide()`` is the
  only chooser behind both ``algorithm="auto"`` and the runtime's
  batch planner, and the page-level training I/O model
  (:class:`TrainingPageProfile`) that lets ``"auto"`` pick streaming
  when memory, not compute, binds;
* :mod:`repro.fx.sketch` — the count-min frequency sketch behind the
  TinyLFU cache policy (the governor's victim rank).

Exports resolve lazily (PEP 562): the execution core sits *below* the
serving layer in some modules (``serve.cache`` uses the sketch) and
*above* it in others (the store hands out caches to predictors), so an
eager ``__init__`` would re-enter itself during bootstrap.
"""

from __future__ import annotations

_EXPORTS = {
    "CostModel": "repro.fx.costs",
    "PlanDecision": "repro.fx.costs",
    "TrainingPageProfile": "repro.fx.costs",
    "recommend_training_strategy": "repro.fx.costs",
    "serving_cost_model": "repro.fx.costs",
    "training_cost_model": "repro.fx.costs",
    "DedupCounter": "repro.fx.dedup",
    "DedupPlan": "repro.fx.dedup",
    "DimensionDedup": "repro.fx.dedup",
    "distinct_values": "repro.fx.dedup",
    "densify_request": "repro.fx.gather",
    "distinct_partials": "repro.fx.gather",
    "gather_partials": "repro.fx.gather",
    "ShardedPartialCache": "repro.fx.sharding",
    "FrequencySketch": "repro.fx.sketch",
    "PartialStore": "repro.fx.store",
    "StoreStats": "repro.fx.store",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
