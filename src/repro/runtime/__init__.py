"""Concurrent batch-serving runtime over normalized data.

:mod:`repro.serve` made factorized inference exact and cheap and owns
the serving core (:mod:`repro.serve.core`: register / execute /
invalidate / swap, written once); this package puts *concurrency* in
front of that core: a bounded request queue feeds a micro-batcher that
coalesces point requests into batches, dispatcher threads run each
batch through the core — directly (``executor="thread"``, over one
lock-guarded partial cache per fingerprint) or each sent whole to an
idle worker process that runs the core again (``executor="process"``) — an
adaptive planner picks materialized vs factorized per batch from the
inference cost model, and the catalog's row-version events evict stale
partials when dimension rows change.

Layers:

* :mod:`~repro.runtime.queue` — bounded request queue + micro-batch
  coalescing;
* :mod:`~repro.runtime.planner` — per-batch strategy planning;
* :mod:`~repro.runtime.service` — the runtime: a
  :class:`~repro.serve.service.ModelService` plus the queue, the
  dispatchers, their metrics and one ``_execute`` over either
  executor;
* :mod:`~repro.runtime.procpool` / :mod:`~repro.runtime.procworker` —
  the process executor (the core's substrate primitives over pipes)
  and its worker entry point.

Entry point: :func:`repro.core.api.serve_runtime` /
``repro.serve_runtime``.
"""

from repro.fx.sharding import ShardedPartialCache
from repro.runtime.planner import BatchPlanner, PlanDecision, PlannerStats
from repro.runtime.queue import Request, RequestQueue
from repro.runtime.service import (
    ADAPTIVE,
    PROCESS_EXECUTOR,
    THREAD_EXECUTOR,
    RuntimeConfig,
    RuntimeStats,
    ServingRuntime,
    WorkerStats,
)

__all__ = [
    "ADAPTIVE",
    "BatchPlanner",
    "PROCESS_EXECUTOR",
    "PlanDecision",
    "PlannerStats",
    "Request",
    "RequestQueue",
    "RuntimeConfig",
    "RuntimeStats",
    "ServingRuntime",
    "ShardedPartialCache",
    "THREAD_EXECUTOR",
    "WorkerStats",
]
