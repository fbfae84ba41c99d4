"""The concurrent batch-serving runtime.

:class:`ServingRuntime` is a :class:`~repro.serve.service.ModelService`
— registration, lookup, the memory budget, invalidation, bookkeeping
and the lifecycle are inherited — with a queue and dispatcher threads
in front of its executor, to turn it into a serving tier:

* a bounded :class:`~repro.runtime.queue.RequestQueue` of normalized
  point requests (admission control / backpressure);
* micro-batching — dispatchers coalesce queued requests for the same
  model into one batch (``max_batch_rows`` rows, a linger of at most
  ``max_wait_ms`` that ends when arrivals pause, and none for a lone
  request no partner is due for), so factorized reuse
  sees the RID repetition that point requests hide;
* an executor behind one small interface (``register`` / ``execute`` /
  ``invalidate`` / ``swap`` / ``unregister`` / ``sample`` /
  ``set_budget`` / ``collect`` / ``close``): ``executor="thread"`` is
  the core itself, called from ``num_workers`` dispatcher threads over
  one lock-guarded partial cache per fingerprint
  (:class:`~repro.fx.sharding.ShardedPartialCache`) — the NumPy
  kernels and page reads that dominate a batch release the GIL;
  ``executor="process"`` is as many dispatchers over
  :class:`~repro.runtime.procpool.ProcessExecutor`, which sends each
  batch whole to an idle worker process that runs the core again;
* per-batch adaptive planning — for each model registered with the
  default ``"adaptive"`` strategy a
  :class:`~repro.runtime.planner.BatchPlanner` picks the arm
  (materialized or factorized) its one predictor answers each batch
  in, from the batch's distinct-RID counts and live cache hit rates.
  Each batch's foreign keys are deduplicated exactly once into a
  :class:`~repro.fx.dedup.DedupPlan` consumed by planner and
  predictor alike, and all partial caches come from the executor's
  shared :class:`~repro.fx.store.PartialStore` — fingerprint-identical
  models reuse one cache, and an optional ``memory_budget`` (bytes)
  makes the store evict the globally least recently used partials
  across every model's caches so the whole runtime's partial
  residency stays bounded under multi-model pressure.

Like every service, the runtime evicts the affected RIDs' partials
when a dimension row changes (see :mod:`repro.serve.cache` for why
this is race-free against in-flight batches).  On top of the
service's per-model :class:`~repro.serve.core.ServingStats` it keeps
runtime-level queue depth, a batch-size histogram, per-worker
execution counters and the planner's decision log
(:meth:`ServingRuntime.runtime_stats`), and a request book — completed
requests, failures, batch seconds and queue waits — that only
``/metrics`` reads.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro.core.strategies import MATERIALIZED
from repro.errors import ModelError
from repro.fx.store import StoreStats
from repro.fx.tiers import validate_tiers
from repro.obs import TelemetryServer
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    SIZE_BUCKETS,
    HistogramCell,
    HistogramValue,
)
from repro.runtime.planner import PlannerStats
from repro.runtime.queue import Request, RequestQueue
from repro.serve.cache import CacheStats
from repro.serve.core import ADAPTIVE, check_memory_budget
from repro.serve.service import ModelService
from repro.storage.catalog import Database

THREAD_EXECUTOR = "thread"
PROCESS_EXECUTOR = "process"


def _process_executor(db, config):
    """``num_workers`` worker processes, one per dispatcher: each
    batch runs whole on one of them."""
    # Import here keeps procpool/procworker out of thread-mode runs.
    from repro.runtime.procpool import ProcessExecutor

    return ProcessExecutor(db, config)


#: executor name -> factory of the executor, or ``None`` for the
#: service's own core, called from ``num_workers`` dispatcher threads
#: over one store whose caches each serialize on their own lock.
_EXECUTORS = {
    THREAD_EXECUTOR: None,
    PROCESS_EXECUTOR: _process_executor,
}


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
    <repro.runtime.queue.RequestQueue.take_batch>`), and a lone request
    leaves at once when its model's arrival rate says no partner is
    due in time.  Only a lone request whose partner is due (or a
    model's first) and traffic that never pauses wait it out.

    ``executor`` picks the worker substrate: ``"thread"`` (default)
    runs ``num_workers`` dispatcher threads in-process; ``"process"``
    runs as many dispatchers, each sending its batch whole to an idle
    one of ``num_workers`` worker *processes*, each with a partial
    store of its own (:mod:`repro.runtime.procpool`) — same request
    API, no GIL on the Python portions of a batch.  Outputs are
    ``array_equal`` across executors whenever the batches match, GMM
    and NN alike.  Selection guidance lives in ``docs/tuning.md``.
    """

    num_workers: int = 2
    max_batch_rows: int = 2048
    max_wait_ms: float = 2.0
    queue_depth: int = 1024
    memory_budget: int | None = None       # bytes across all models
    store_tiers: tuple = ()                # demotion ladder, e.g.
                                           # ("float32", "spill")
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
    """Execution counters for one dispatcher thread, on either
    executor: the batches it ran, their rows and their seconds."""

    batches: int = 0
    rows: int = 0
    wall_seconds: float = 0.0


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
    # and the two histograms time each batch's pipe phases: scatter is
    # the send of its EXEC frame, gather the wait for the worker's
    # reply; in thread mode the histograms are present but empty.
    executor: str = THREAD_EXECUTOR
    scatter_seconds: HistogramValue | None = None
    gather_seconds: HistogramValue | None = None


class ServingRuntime(ModelService):
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

    DEFAULT_STRATEGY = ADAPTIVE

    def __init__(
        self,
        db: Database,
        config: RuntimeConfig | None = None,
        *,
        telemetry=None,
        telemetry_port: int | None = None,
    ) -> None:
        self.config = config or RuntimeConfig()
        # Asking for the HTTP endpoint implies wanting telemetry on.
        if telemetry is None and telemetry_port is not None:
            telemetry = True
        # Everything the collector reads exists before the service
        # registers it.
        self._queue = RequestQueue(self.config.queue_depth)
        # The runtime's books, which /metrics samples (under the
        # service's stats lock): batch sizes (the count is the batch
        # count), the process executor's phases, completed requests by
        # (model, op), failures and batch seconds by model, and every
        # request's wait from submit to claim.
        self._batch_rows = HistogramCell(SIZE_BUCKETS)
        self._scatter_latency = HistogramCell(LATENCY_BUCKETS_S)
        self._gather_latency = HistogramCell(LATENCY_BUCKETS_S)
        self._requests: dict[tuple[str, str], int] = defaultdict(int)
        self._failures: dict[str, int] = defaultdict(int)
        self._batch_seconds = defaultdict(
            lambda: HistogramCell(LATENCY_BUCKETS_S)
        )
        self._queue_wait = HistogramCell(LATENCY_BUCKETS_S)
        # One WorkerStats per dispatcher thread: it attributes the
        # batches it ran to its own slot, on either executor.
        self._worker_stats = [
            WorkerStats() for _ in range(self.config.num_workers)
        ]
        super().__init__(
            db,
            memory_budget=self.config.memory_budget,
            store_tiers=self.config.store_tiers,
            telemetry=telemetry,
        )
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(i,),
                name=f"repro-runtime-worker-{i}",
                daemon=True,
            )
            for i in range(self.config.num_workers)
        ]
        self.telemetry_server: TelemetryServer | None = None
        if telemetry_port is not None:
            self.telemetry_server = TelemetryServer(
                self.telemetry, port=telemetry_port
            )
        for worker in self._workers:
            worker.start()

    def _build_executor(self, memory_budget, store_tiers):
        build = _EXECUTORS[self.config.executor]
        if build is None:
            return super()._build_executor(memory_budget, store_tiers)
        return build(self.db, self.config)

    def _collect(self, buffer) -> None:
        """Sample component state into a registry snapshot.

        Invoked outside the registry lock (see
        :meth:`repro.obs.metrics.MetricsRegistry.snapshot`); every
        group below is read atomically under its own component's lock,
        so each group is internally consistent.
        """
        self._queue.collect(buffer)
        sizes, scatter, gather, workers = self._books()
        with self._stats_lock:
            requests = dict(self._requests)
            failures = dict(self._failures)
            batch_seconds = {
                name: cell.value()
                for name, cell in self._batch_seconds.items()
            }
            queue_wait = self._queue_wait.value()
        for (name, op), count in requests.items():
            buffer.counter(
                "repro_requests_total", count,
                help="Point requests completed, by model and op",
                model=name, op=op,
            )
        for name, count in failures.items():
            buffer.counter(
                "repro_batch_failures_total", count,
                help="Requests failed during scoring", model=name,
            )
        for name, value in batch_seconds.items():
            buffer.histogram(
                "repro_batch_seconds", value,
                help="Batch execution wall seconds", model=name,
            )
        for name, value, help in (
            ("repro_batch_rows", sizes, "Rows per executed micro-batch"),
            ("repro_queue_wait_seconds", queue_wait,
             "Per-request wait from submit to batch claim"),
            # The process executor's phases: thread mode never
            # observes them, so it exports neither.
            ("repro_scatter_seconds", scatter,
             "Per-batch scatter phase: framing the batch and sending "
             "it to an idle worker process"),
            ("repro_gather_seconds", gather,
             "Per-batch gather phase: the wait for that worker's "
             "reply"),
        ):
            if value.count:
                buffer.histogram(name, value, help=help)
        buffer.counter(
            "repro_worker_batches_total", sum(w.batches for w in workers),
            help="Batches executed across all workers",
        )
        buffer.counter(
            "repro_worker_busy_seconds_total",
            sum(w.wall_seconds for w in workers),
            help="Accumulated batch execution seconds across workers",
        )
        for index, worker in enumerate(workers):
            buffer.counter(
                "repro_worker_rows_executed_total", worker.rows,
                help="Rows executed by this worker (the dispatcher "
                     "thread that ran their batches)",
                worker=str(index),
            )
        # Per-model, store and cache series come from the service
        # (store and cache numbers from the core, or the workers' replies).
        super()._collect(buffer)
        self.db.collect(buffer)

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
        self._check_open()
        registered = self._executor.model(name)
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
            # (dedup/plan/predict, or the pipe's scatter/gather) as
            # children, and the deeper layers (gather, caches, buffer
            # pool) attribute through the thread-local current_span().
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
            with self._stats_lock:
                self._failures[name] += 1
                self._requests[name, op] += 1
                self._queue_wait.observe(batch[0].wait_seconds(claimed))
            for request in batch:
                if not request.future.set_running_or_notify_cancel():
                    continue
                request.future.set_exception(error)
            return
        # The core recorded the batch, the facade counts its requests.
        registered = self._executor.get(name)   # None once unregistered
        if registered is not None:
            registered.stats.add_requests(len(batch))
        with self._stats_lock:
            self._requests[name, op] += len(batch)
            for request in batch:
                self._queue_wait.observe(request.wait_seconds(claimed))
            self._batch_seconds[name].observe(meta.elapsed)
            self._batch_rows.observe(rows)
            if meta.scatter_seconds is not None:
                self._scatter_latency.observe(meta.scatter_seconds)
                self._gather_latency.observe(meta.gather_seconds)
            stats.batches += 1
            stats.rows += rows
            stats.wall_seconds += meta.elapsed
        offset = 0
        for request in batch:
            if request.future.set_running_or_notify_cancel():
                request.future.set_result(
                    outputs[offset:offset + request.rows]
                )
            offset += request.rows

    # -- bookkeeping ---------------------------------------------------------

    def planner_stats(self, name: str) -> PlannerStats:
        return self._executor.model(name).planner_stats

    def _books(self):
        """One cut of the runtime's books, under the stats lock:
        ``(batch sizes, scatter, gather, [WorkerStats])``."""
        with self._stats_lock:
            return (
                self._batch_rows.value(),
                self._scatter_latency.value(),
                self._gather_latency.value(),
                [
                    WorkerStats(w.batches, w.rows, w.wall_seconds)
                    for w in self._worker_stats
                ],
            )

    def runtime_stats(self) -> RuntimeStats:
        """Snapshot of queue, batch, worker, cache and planner counters.

        Backend-agnostic: in process mode the cache and store stats are
        merged across the worker processes (one STATS round-trip) and
        the scatter / gather histograms are populated; the worker list
        covers the dispatcher threads on either executor.
        """
        sizes, scatter, gather, workers = self._books()
        # The batch-size cell's power-of-two bounds; batches past the
        # top one count under twice it (the open-ended bucket).
        bounds = [*map(int, sizes.buckets), 2 * int(sizes.buckets[-1])]
        models = self._executor.registry()
        cache_stats, store_stats = self._executor.sample()
        return RuntimeStats(
            queue_depth=self._queue.depth,
            queue_max_depth=self._queue.max_depth_seen,
            requests_enqueued=self._queue.enqueued,
            batches=sizes.count,
            batch_size_histogram={
                bound: n for bound, n in zip(bounds, sizes.counts) if n
            },
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
        """Drain queued requests, stop the workers, close the service.

        Idempotent.  Requests already queued are still served; new
        submits fail immediately.
        """
        if self._closed:
            return
        self._queue.close()
        for worker in self._workers:
            worker.join(timeout)
        # Only once no dispatcher can touch it: releases the caches
        # and the spill directory, or stops the worker processes.
        super().close()
        # Anything a worker could not claim before exiting fails fast.
        for request in self._queue.drain():
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    ModelError("runtime closed before serving this request")
                )
        if self.telemetry_server is not None:
            self.telemetry_server.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServingRuntime(models={self.model_names}, "
            f"workers={self.config.num_workers}, "
            f"queue={self._queue.depth}/{self.config.queue_depth})"
        )
