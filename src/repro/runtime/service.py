"""The concurrent batch-serving runtime.

:class:`ServingRuntime` puts a queue and dispatcher threads in front of
the serving core (:mod:`repro.serve.core`) — the same register /
execute / invalidate / swap code
:class:`~repro.serve.service.ModelService` runs inline — to turn it
into a serving tier:

* a bounded :class:`~repro.runtime.queue.RequestQueue` of normalized
  point requests (admission control / backpressure);
* micro-batching — dispatchers coalesce queued requests for the same
  model into one batch (``max_batch_rows`` rows, a linger of at most
  ``max_wait_ms`` that ends when arrivals pause), so factorized reuse
  sees the RID repetition that point requests hide;
* an executor behind one small interface (``register`` / ``execute`` /
  ``invalidate`` / ``swap`` / ``unregister`` / ``sample`` /
  ``set_budget`` / ``collect`` / ``close``): ``executor="thread"`` is
  the core itself, called from ``num_workers`` dispatcher threads over
  one lock-guarded partial cache per fingerprint
  (:class:`~repro.fx.sharding.ShardedPartialCache`) — the NumPy
  kernels and page reads that dominate a batch release the GIL;
  ``executor="process"`` is one dispatcher over
  :class:`~repro.runtime.procpool.ProcessExecutor`, which scatters
  each batch to worker processes that each run the core again;
* per-batch adaptive planning — each model registered with the default
  ``"adaptive"`` strategy carries *both* predictors, and a
  :class:`~repro.runtime.planner.BatchPlanner` picks materialized or
  factorized from the batch's distinct-RID counts and live cache hit
  rates.  Each batch's foreign keys are deduplicated exactly once into
  a :class:`~repro.fx.dedup.DedupPlan` consumed by planner and
  predictor alike, and all partial caches come from the executor's
  shared :class:`~repro.fx.store.PartialStore` — fingerprint-identical
  models reuse one cache, optionally with TinyLFU victim ranking
  (``cache_admission="tinylfu"``), and an optional
  ``memory_budget`` (bytes) makes the store evict the globally
  coldest partials across every model's caches so the whole runtime's
  partial residency stays bounded under multi-model pressure.

The runtime also subscribes to the catalog's
:class:`~repro.storage.events.RowVersionEvent` stream: an in-place
update to a dimension relation evicts exactly the affected RIDs from
every cache of every model joined to it, so the next prediction
reflects the new rows (see :mod:`repro.serve.cache` for why this is
race-free against in-flight batches).

Bookkeeping mirrors ``ModelService``: per-model
:class:`~repro.serve.core.ServingStats`, plus runtime-level queue
depth, a batch-size histogram, per-worker execution counters, cache
stats and the planner's decision log
(:meth:`ServingRuntime.runtime_stats`).
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro.core.strategies import MATERIALIZED
from repro.errors import ModelError
from repro.fx.store import StoreStats
from repro.fx.tiers import validate_tiers
from repro.join.bnl import DEFAULT_BLOCK_PAGES
from repro.join.spec import JoinSpec
from repro.obs import TelemetryServer, as_telemetry
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    SIZE_BUCKETS,
    HistogramCell,
    HistogramValue,
)
from repro.runtime.planner import PlannerStats
from repro.runtime.queue import Request, RequestQueue
from repro.serve.cache import LRU_ADMISSION, CacheStats
from repro.serve.core import (
    ADAPTIVE,
    RegisteredModel,
    ServingCore,
    ServingStats,
    budget_floats,
    budgeted_store,
    check_memory_budget,
)
from repro.storage.catalog import Database
from repro.storage.events import RowVersionEvent

THREAD_EXECUTOR = "thread"
PROCESS_EXECUTOR = "process"


def _thread_executor(db, config):
    """The core itself, called from ``num_workers`` dispatcher threads
    over one store whose caches each serialize on their own lock."""
    store = budgeted_store(
        config.memory_budget,
        admission=config.cache_admission,
        tiers=config.store_tiers,
    )
    core = ServingCore(db, store, block_pages=config.block_pages)
    return core, config.num_workers


def _process_executor(db, config):
    """Worker processes behind a single dispatcher: within-batch
    parallelism comes from scattering one batch *across* them."""
    # Import here keeps procpool/procworker out of thread-mode runs.
    from repro.runtime.procpool import ProcessExecutor

    return ProcessExecutor(db, config), 1


#: executor name -> factory of ``(executor, dispatcher threads)``.
_EXECUTORS = {
    THREAD_EXECUTOR: _thread_executor,
    PROCESS_EXECUTOR: _process_executor,
}

def _batch_size_bucket(rows: int) -> int:
    """Power-of-two histogram bucket (upper bound) for a batch size."""
    bucket = 1
    while bucket < rows:
        bucket *= 2
    return bucket


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the serving runtime.

    ``memory_budget`` (bytes, ``None`` = unbounded) caps the total
    resident partial payload across *every* registered model: it
    becomes the shared :class:`~repro.fx.store.PartialStore`'s global
    ``capacity_floats`` (``memory_budget // 8``), enforced by
    cross-cache eviction of the globally coldest partials.  Sizing
    guidance lives in ``docs/tuning.md``.

    ``store_tiers`` opts budgeted runtimes into the tiered partial
    ladder (:mod:`repro.fx.tiers`): instead of dropping cold partials
    outright, the governor demotes them down the configured rungs —
    ``"float32"`` (compressed, bounded-delta scores, GMM labels
    bit-exact) and ``"spill"`` (on-disk heap pages, exact) —
    and re-promotes on the next touch.  The exactness contract per
    tier is documented in ``docs/tuning.md``.

    ``max_wait_ms`` is a ceiling on a batch's linger, not a sleep: a
    dispatcher stops waiting once arrivals pause
    (:meth:`RequestQueue.take_batch
    <repro.runtime.queue.RequestQueue.take_batch>`); only a lone
    request waits it out.

    ``executor`` picks the worker substrate: ``"thread"`` (default)
    runs ``num_workers`` threads in-process; ``"process"`` runs
    ``num_workers`` worker *processes* with shared-memory partial
    slabs and RID-affinity batch scattering
    (:mod:`repro.runtime.procpool`) — same request API, bit-identical
    outputs, no GIL on the Python portions of a batch.  Selection
    guidance lives in ``docs/tuning.md``.
    """

    num_workers: int = 2
    max_batch_rows: int = 2048
    max_wait_ms: float = 2.0
    queue_depth: int = 1024
    cache_admission: str = LRU_ADMISSION   # "lru" | "tinylfu"
    memory_budget: int | None = None       # bytes across all models
    store_tiers: tuple = ()                # demotion ladder, e.g.
                                           # ("float32", "spill")
    block_pages: int = DEFAULT_BLOCK_PAGES
    executor: str = THREAD_EXECUTOR        # "thread" | "process"

    def __post_init__(self) -> None:
        if self.executor not in _EXECUTORS:
            raise ModelError(
                f"unknown executor {self.executor!r}; "
                f"use 'thread'|'process'"
            )
        if self.num_workers <= 0:
            raise ModelError(
                f"num_workers must be positive, got {self.num_workers}"
            )
        if self.max_batch_rows <= 0:
            raise ModelError(
                f"max_batch_rows must be positive, got {self.max_batch_rows}"
            )
        if self.max_wait_ms < 0:
            raise ModelError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )
        # Normalize (dedupe, canonical ladder order) and validate the
        # tier names; the frozen dataclass needs the escape hatch.
        object.__setattr__(
            self, "store_tiers", validate_tiers(self.store_tiers)
        )
        check_memory_budget(self.memory_budget, self.store_tiers)


@dataclass
class WorkerStats:
    """Execution counters for one worker (thread or process)."""

    batches: int = 0
    rows: int = 0
    wall_seconds: float = 0.0

    @property
    def rows_executed(self) -> int:
        """Rows this worker executed (alias of ``rows``; the name the
        process-mode observability docs use)."""
        return self.rows


@dataclass
class RuntimeStats:
    """A point-in-time snapshot of runtime-level bookkeeping.

    Each field group is read atomically under its owning component's
    lock (worker counters under the stats lock, each cache's counters
    under that cache's lock), so no group can mix values from two
    instants.  For one consistent cut across *everything* —
    queue, planner, caches, store, buffer pool, training — use the
    runtime's ``telemetry.snapshot()`` instead.
    """

    queue_depth: int
    queue_max_depth: int
    requests_enqueued: int
    batches: int
    batch_size_histogram: dict[int, int]
    # Batches by what ended their linger (RequestQueue.close_reasons).
    batch_close_reasons: dict[str, int]
    workers: list[WorkerStats]
    planner_decisions: dict[str, dict[str, int]]
    cache_stats: dict[str, list[CacheStats]]
    invalidated_rids: dict[str, int]
    dedup_ratio: dict[str, float]
    store: StoreStats
    # Backend annotations ("thread" | "process").  In process mode
    # ``cache_stats``/``store`` are merged across the worker processes
    # and the two histograms cover the dispatcher's scatter (slab
    # writes + EXEC sends) and gather (reply waits + output copies)
    # phases; in thread mode the histograms are present but empty.
    executor: str = THREAD_EXECUTOR
    scatter_seconds: HistogramValue | None = None
    gather_seconds: HistogramValue | None = None


class ServingRuntime:
    """Concurrent micro-batching serving over normalized relations.

    >>> runtime = serve_runtime(db, num_workers=4)
    >>> runtime.register_nn("ratings", nn_result, spec)
    >>> future = runtime.submit("ratings", features, fks)
    >>> outputs = future.result()
    >>> runtime.close()

    ``submit`` returns a :class:`concurrent.futures.Future`;
    ``predict``/``score`` are the blocking conveniences.  The runtime
    is a context manager — leaving the block drains and stops the
    workers.
    """

    def __init__(
        self,
        db: Database,
        config: RuntimeConfig | None = None,
        *,
        telemetry=None,
        telemetry_port: int | None = None,
    ) -> None:
        self.db = db
        self.config = config or RuntimeConfig()
        # Asking for the HTTP endpoint implies wanting telemetry on.
        if telemetry is None and telemetry_port is not None:
            telemetry = True
        self.telemetry = as_telemetry(telemetry)
        self._make_instruments()
        # The executor is built NOW, before this constructor starts any
        # thread: process mode spawns its workers here, and the default
        # fork start must never clone a multi-threaded parent
        # (inherited locks could be held by threads that do not exist
        # in the child).
        self._executor, dispatchers = _EXECUTORS[self.config.executor](
            db, self.config
        )
        #: The partial store (``None`` when it lives in worker processes).
        self.store = self._executor.store
        self._queue = RequestQueue(self.config.queue_depth)
        self._stats_lock = threading.Lock()
        self._batches = 0
        self._batch_histogram: Counter = Counter()
        self._closed = False
        self._scatter_latency = HistogramCell(LATENCY_BUCKETS_S)
        self._gather_latency = HistogramCell(LATENCY_BUCKETS_S)
        # One WorkerStats per worker: a dispatcher thread attributes
        # the batches it ran to its own slot; batches scattered to
        # worker processes are attributed from their replies.
        self._worker_stats = [
            WorkerStats() for _ in range(self.config.num_workers)
        ]
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(i,),
                name=f"repro-runtime-worker-{i}",
                daemon=True,
            )
            for i in range(dispatchers)
        ]
        self.db.subscribe(self._on_row_version)
        # Queue/worker/cache/store/page-I/O state is *sampled* at
        # snapshot time rather than double-counted per event.
        self.telemetry.registry.register_collector(self._collect)
        self.telemetry_server: TelemetryServer | None = None
        if telemetry_port is not None:
            self.telemetry_server = TelemetryServer(
                self.telemetry, port=telemetry_port
            )
        for worker in self._workers:
            worker.start()

    def _make_instruments(self) -> None:
        """Create the owned (per-event) instruments once.

        With telemetry disabled every handle is the shared no-op
        singleton, so the hot path pays one method call per event.
        """
        registry = self.telemetry.registry
        self._m_requests = registry.counter(
            "repro_requests_total",
            help="Point requests completed, by model and op",
            labelnames=("model", "op"),
        )
        self._m_batches = registry.counter(
            "repro_batches_total",
            help="Micro-batches executed",
            labelnames=("model",),
        )
        self._m_batch_failures = registry.counter(
            "repro_batch_failures_total",
            help="Requests failed during scoring",
            labelnames=("model",),
        )
        self._m_batch_rows = registry.histogram(
            "repro_batch_rows",
            buckets=SIZE_BUCKETS,
            help="Rows per executed micro-batch",
        )
        self._m_batch_seconds = registry.histogram(
            "repro_batch_seconds",
            help="Batch execution wall seconds",
            labelnames=("model",),
        )
        self._m_queue_wait = registry.histogram(
            "repro_queue_wait_seconds",
            help="Per-request wait from submit to batch claim",
        )
        self._m_planner_decisions = registry.counter(
            "repro_planner_decisions_total",
            help="Adaptive planner strategy choices",
            labelnames=("model", "strategy"),
        )
        self._m_planner_dense_mults = registry.counter(
            "repro_planner_dense_mults_total",
            help="Cost-model multiplications the dense path would pay",
            labelnames=("model",),
        )
        self._m_planner_factorized_mults = registry.counter(
            "repro_planner_factorized_mults_total",
            help="Cost-model multiplications the factorized path "
                 "would pay (cache-discounted)",
            labelnames=("model",),
        )
        self._m_invalidated_rids = registry.counter(
            "repro_invalidated_rids_total",
            help="Cached partial rows dropped by dimension updates",
            labelnames=("model",),
        )
        # Process-executor phases (never observed in thread mode).
        self._m_scatter_seconds = registry.histogram(
            "repro_scatter_seconds",
            help="Per-batch scatter phase: shared-memory slab writes "
                 "plus EXEC sends to the RID-affine workers",
        )
        self._m_gather_seconds = registry.histogram(
            "repro_gather_seconds",
            help="Per-batch gather phase: worker reply waits plus "
                 "output copies out of the task slabs",
        )

    def _collect(self, buffer) -> None:
        """Sample component state into a registry snapshot.

        Invoked outside the registry lock (see
        :meth:`repro.obs.metrics.MetricsRegistry.snapshot`); every
        group below is read atomically under its own component's lock,
        so each group is internally consistent.
        """
        self._queue.collect(buffer)
        with self._stats_lock:
            batches = sum(w.batches for w in self._worker_stats)
            busy = sum(w.wall_seconds for w in self._worker_stats)
        buffer.counter(
            "repro_worker_batches_total", batches,
            help="Batches executed across all workers",
        )
        buffer.counter(
            "repro_worker_busy_seconds_total", busy,
            help="Accumulated batch execution seconds across workers",
        )
        # Store, cache and per-model series come from whoever owns the
        # numbers (the core, or the worker headers).
        self._executor.collect(buffer)
        self.db.collect(buffer)

    # -- registration --------------------------------------------------------

    def register_gmm(
        self,
        name: str,
        model,
        spec: JoinSpec,
        *,
        strategy: str = ADAPTIVE,
    ) -> RegisteredModel:
        """Register a fitted mixture (a ``GMMResult`` or the bare model)."""
        return self._register(name, "gmm", spec, model, strategy)

    def register_nn(
        self,
        name: str,
        model,
        spec: JoinSpec,
        *,
        strategy: str = ADAPTIVE,
    ) -> RegisteredModel:
        """Register a trained network (an ``NNResult`` or the bare MLP)."""
        return self._register(name, "nn", spec, model, strategy)

    def _register(self, name, kind, spec, model, strategy) -> RegisteredModel:
        if self._closed:
            raise ModelError("runtime is closed")
        return self._executor.register(name, kind, spec, model, strategy)

    def swap_model(self, name: str, model) -> RegisteredModel:
        """Atomically replace ``name``'s fit with a refreshed one — see
        :meth:`ServingCore.swap <repro.serve.core.ServingCore.swap>`.
        A batch resolves entirely the old or entirely the new
        registration, on either executor."""
        if self._closed:
            raise ModelError("runtime is closed")
        return self._executor.swap(name, model)

    def unregister(self, name: str) -> None:
        self._executor.unregister(name)

    # -- lookup --------------------------------------------------------------

    @property
    def model_names(self) -> list[str]:
        return sorted(self._executor.registry())

    def __contains__(self, name: str) -> bool:
        return name in self._executor

    def model(self, name: str) -> RegisteredModel:
        return self._executor.model(name)

    # -- request admission ---------------------------------------------------

    def submit(
        self,
        name: str,
        fact_features,
        fk_values,
        *,
        op: str = "predict",
        timeout: float | None = None,
    ) -> Future:
        """Enqueue one point request; returns a future of its outputs.

        Validation (op, feature width, FK shape) happens here, on the
        caller's thread, so malformed requests fail fast.  Failures
        that only surface during scoring (e.g. a dangling foreign key)
        fail their own future without poisoning requests they
        coalesced with.  ``timeout`` bounds how long to wait for queue
        space when the runtime is saturated.
        """
        registered = self._executor.model(name)
        if self._closed:
            raise ModelError("runtime is closed")
        features, fks = registered.admit(op, fact_features, fk_values)
        request = Request((name, op), features, fks)
        self._queue.put(request, timeout=timeout)
        return request.future

    def predict(
        self, name: str, fact_features, fk_values,
        *, timeout: float | None = None,
    ) -> np.ndarray:
        """Blocking submit: model outputs for one normalized request."""
        return self._call(name, fact_features, fk_values, "predict", timeout)

    def score(
        self, name: str, fact_features, fk_values,
        *, timeout: float | None = None,
    ) -> np.ndarray:
        """Blocking submit: per-tuple log-likelihoods (GMM only)."""
        return self._call(name, fact_features, fk_values, "score", timeout)

    def _call(self, name, fact_features, fk_values, op, timeout):
        """Submit and wait: one ``timeout`` bounds the wait for queue
        space and the wait for the result together."""
        start = time.perf_counter()
        future = self.submit(
            name, fact_features, fk_values, op=op, timeout=timeout
        )
        if timeout is not None:
            timeout = max(0.0, start + timeout - time.perf_counter())
        return future.result(timeout)

    # -- the worker pool -----------------------------------------------------

    def _worker_loop(self, worker_id: int) -> None:
        stats = self._worker_stats[worker_id]
        while True:
            batch = self._queue.take_batch(
                self.config.max_batch_rows,
                self.config.max_wait_ms / 1000.0,
            )
            if batch is None:
                return
            self._execute(batch, stats)

    def _execute(self, batch: list[Request], stats: WorkerStats) -> None:
        """Run one coalesced batch through the executor and resolve
        its requests' futures."""
        name, op = batch[0].batch_key
        rows = sum(request.rows for request in batch)
        claimed = time.perf_counter()
        try:
            features = (
                batch[0].features if len(batch) == 1
                else np.concatenate([r.features for r in batch], axis=0)
            )
            fks = [
                batch[0].fks[i] if len(batch) == 1
                else np.concatenate([r.fks[i] for r in batch])
                for i in range(len(batch[0].fks))
            ]
            # Root span for the batch: the executor opens its phases
            # (dedup/plan/predict, or scatter/gather) as children, and
            # the deeper layers (gather, caches, buffer pool) attribute
            # through the thread-local current_span().
            with self.telemetry.tracer.trace(
                "serve.batch", model=name, op=op,
                requests=len(batch), rows=rows,
            ) as root:
                # Queue wait predates the span tree; attach it as an
                # already-finished child from the oldest request's
                # enqueue stamp to the moment the worker claimed it.
                root.record(
                    "queue.wait",
                    min(r.enqueued_at for r in batch),
                    claimed,
                )
                outputs, meta = self._executor.execute(
                    name, op, features, fks, span=root
                )
        except BaseException as error:
            # Shape errors are caught at submit time, but data-dependent
            # failures (a dangling foreign key, a dead worker process)
            # only surface during scoring.  Retry the requests one by
            # one so a single bad request cannot poison the others it
            # coalesced with.
            if len(batch) > 1:
                for request in batch:
                    self._execute([request], stats)
                return
            self._m_batch_failures.labels(model=name).inc()
            self._m_queue_wait.observe(batch[0].wait_seconds(claimed))
            self._m_requests.labels(model=name, op=op).inc()
            for request in batch:
                if not request.future.set_running_or_notify_cancel():
                    continue
                request.future.set_exception(error)
            return
        self._m_requests.labels(model=name, op=op).inc(len(batch))
        self._m_batches.labels(model=name).inc()
        self._m_batch_rows.observe(rows)
        self._m_batch_seconds.labels(model=name).observe(meta.elapsed)
        for request in batch:
            self._m_queue_wait.observe(request.wait_seconds(claimed))
        for decision in meta.decisions:
            self._m_planner_decisions.labels(
                model=name, strategy=decision.strategy
            ).inc()
            # The cost-model delta is exported as the two estimates
            # (both monotone counters); dashboards subtract them — a
            # signed "saving" series would not be a legal Prometheus
            # counter.
            self._m_planner_dense_mults.labels(model=name).inc(
                decision.dense_mults
            )
            self._m_planner_factorized_mults.labels(model=name).inc(
                decision.factorized_mults
            )
        scattered = meta.scatter_seconds is not None
        if scattered:
            self._m_scatter_seconds.observe(meta.scatter_seconds)
            self._m_gather_seconds.observe(meta.gather_seconds)
        # Who did the work: the worker processes the batch was
        # scattered to, else this dispatcher itself.
        attributed = [
            (self._worker_stats[worker], sub_rows, seconds)
            for worker, sub_rows, seconds in meta.shares
        ] or [(stats, rows, meta.elapsed)]
        with self._stats_lock:
            self._batches += 1
            self._batch_histogram[_batch_size_bucket(rows)] += 1
            if scattered:
                self._scatter_latency.observe(meta.scatter_seconds)
                self._gather_latency.observe(meta.gather_seconds)
            for worker_stats, sub_rows, seconds in attributed:
                worker_stats.batches += 1
                worker_stats.rows += sub_rows
                worker_stats.wall_seconds += seconds
        offset = 0
        for request in batch:
            if request.future.set_running_or_notify_cancel():
                request.future.set_result(
                    outputs[offset:offset + request.rows]
                )
            offset += request.rows

    # -- adaptation ----------------------------------------------------------

    def set_memory_budget(self, memory_budget: int | None) -> int:
        """Re-bound the store-wide partial budget mid-flight.

        ``memory_budget`` is bytes across every registered model (like
        the constructor knob); ``None`` lifts the bound.  Tightening
        sweeps the globally coldest partials immediately and
        returns the number of rows evicted — this is how adaptation
        scenarios model a deployment whose memory allotment is cut
        while traffic is in flight.  The runtime must have been
        created with a ``memory_budget`` (an armed governor); see
        :meth:`~repro.fx.store.PartialStore.set_budget`.  The frozen
        ``config.memory_budget`` keeps its construction-time value;
        the live bound is ``runtime_stats().store.capacity_floats``.
        """
        if memory_budget is not None and memory_budget <= 0:
            raise ModelError(
                f"memory_budget must be positive bytes or None, "
                f"got {memory_budget}"
            )
        return self._executor.set_budget(budget_floats(memory_budget))

    # -- invalidation --------------------------------------------------------

    def _on_row_version(self, event: RowVersionEvent) -> None:
        """Evict updated RIDs' partials from every cache of every model."""
        dropped_by_model = self._executor.invalidate(
            event.relation, event.rids, event.positions
        )
        for name, dropped in dropped_by_model.items():
            if dropped:
                self._m_invalidated_rids.labels(model=name).inc(dropped)

    # -- bookkeeping ---------------------------------------------------------

    def stats(self, name: str) -> ServingStats:
        return self._executor.model(name).stats

    def cache_stats(self, name: str) -> list[CacheStats]:
        """Per-dimension partial-cache counters (merged across worker
        processes in process mode), monotone across :meth:`swap_model`."""
        return self._executor.cache_stats(name)

    def planner_stats(self, name: str) -> PlannerStats:
        return self._executor.model(name).planner_stats

    def runtime_stats(self) -> RuntimeStats:
        """Snapshot of queue, batch, worker, cache and planner counters.

        Backend-agnostic: in process mode the cache and store stats are
        merged across the worker processes (one STATS round-trip), the
        worker list covers the worker *processes*, and the scatter /
        gather histograms are populated.
        """
        with self._stats_lock:
            histogram = dict(sorted(self._batch_histogram.items()))
            workers = [
                WorkerStats(w.batches, w.rows, w.wall_seconds)
                for w in self._worker_stats
            ]
            batches = self._batches
            scatter = self._scatter_latency.value()
            gather = self._gather_latency.value()
        models = self._executor.registry()
        cache_stats, store_stats = self._executor.sample()
        return RuntimeStats(
            queue_depth=self._queue.depth,
            queue_max_depth=self._queue.max_depth_seen,
            requests_enqueued=self._queue.enqueued,
            batches=batches,
            batch_size_histogram=histogram,
            batch_close_reasons=dict(self._queue.close_reasons),
            workers=workers,
            planner_decisions={
                name: dict(model.planner_stats.decisions)
                for name, model in models.items()
                if model.strategy == ADAPTIVE
            },
            cache_stats=cache_stats,
            invalidated_rids={
                name: model.invalidated_rids
                for name, model in models.items()
                if model.strategy != MATERIALIZED
            },
            dedup_ratio={
                name: model.dedup_ratio
                for name, model in models.items()
            },
            store=store_stats,
            executor=self.config.executor,
            scatter_seconds=scatter,
            gather_seconds=gather,
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self, *, timeout: float | None = None) -> None:
        """Drain queued requests, stop the workers, unsubscribe.

        Idempotent.  Requests already queued are still served; new
        submits fail immediately.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.close()
        for worker in self._workers:
            worker.join(timeout)
        # Only once no dispatcher can touch it: releases the caches
        # and the spill directory, or stops the worker processes and
        # unlinks every shared segment.
        self._executor.close()
        # Anything a worker could not claim before exiting fails fast.
        for request in self._queue.drain():
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    ModelError("runtime closed before serving this request")
                )
        self.db.unsubscribe(self._on_row_version)
        if self.telemetry_server is not None:
            self.telemetry_server.close()
        # Detach the collector or later snapshots of a shared Telemetry
        # would sample this dead runtime forever.
        self.telemetry.registry.unregister_collector(self._collect)

    def __enter__(self) -> "ServingRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServingRuntime(models={self.model_names}, "
            f"workers={self.config.num_workers}, "
            f"queue={self._queue.depth}/{self.config.queue_depth})"
        )
