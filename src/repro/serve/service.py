"""The serving facade: registered models answering batched requests.

A :class:`ModelService` is the serving core
(:class:`~repro.serve.core.ServingCore`) driven from the caller's
thread — no queue, no workers: it owns a database handle and, through
the core, a registry of fitted models, each bound to a join spec and a
serving strategy.  It is the one facade: the concurrent
:class:`~repro.runtime.service.ServingRuntime` subclasses it and adds
only a request queue and its dispatchers, so registration, lookup,
the memory budget, the row-version subscription, bookkeeping and the
closed-state checks are written here once.  Every request is timed and
its page I/O attributed to the model that served it, so a deployment
can watch throughput and I/O per model exactly the way the training
side watches per-algorithm cost.

Factorized models draw their partial caches from the service's own
:class:`~repro.fx.store.PartialStore`: registering two models whose
partials are value-identical — the same fitted parameters over the
same join — makes them share cached slabs instead of each holding a
private copy.  ``memory_budget`` (bytes) caps the *total* resident
partial payload across every registered model — the store evicts the
globally coldest partials across cache boundaries when an insert
pushes past it, so multi-model deployments degrade to recomputation
instead of unbounded growth (see ``docs/tuning.md`` for sizing).
"""

from __future__ import annotations

import threading
import weakref
from collections import defaultdict

import numpy as np

from repro.core.strategies import FACTORIZED, MATERIALIZED
from repro.errors import ModelError
from repro.join.spec import JoinSpec
from repro.obs import as_telemetry
from repro.obs.metrics import LATENCY_BUCKETS_S, HistogramCell
from repro.serve.cache import CacheStats
from repro.serve.core import (
    ADAPTIVE,
    RegisteredModel,
    ServingCore,
    ServingStats,
    budget_floats,
    check_memory_budget,
)
from repro.storage.catalog import Database
from repro.storage.events import RowVersionEvent

__all__ = ["ModelService", "RegisteredModel", "ServingStats"]


class ModelService:
    """Registers fitted models and serves predictions over normalized data.

    >>> service = ModelService(db)
    >>> service.register_nn("ratings", nn_result, spec)
    >>> outputs = service.predict("ratings", fact_features, fk_values)
    >>> service.stats("ratings").rows_per_second

    A closed service refuses registration, swaps and requests with a
    :class:`~repro.errors.ModelError`: it no longer hears dimension-row
    updates, so its answers could be stale.
    """

    #: The serving strategy of a registration that names none.
    DEFAULT_STRATEGY = FACTORIZED

    def __init__(
        self,
        db: Database,
        *,
        memory_budget: int | None = None,
        store_tiers: tuple = (),
        telemetry=None,
    ) -> None:
        check_memory_budget(memory_budget, store_tiers)
        self.db = db
        self._closed = False
        # telemetry: None/False -> shared no-op; True -> fresh enabled;
        # a Telemetry instance -> shared (one snapshot across layers).
        self.telemetry = as_telemetry(telemetry)
        # The one request book no per-model record keeps: calls served
        # on the caller's thread by (model, op), and their wall seconds
        # by model; :meth:`_collect` samples it.
        self._stats_lock = threading.Lock()
        self._calls: dict[tuple[str, str], int] = defaultdict(int)
        self._call_seconds = defaultdict(
            lambda: HistogramCell(LATENCY_BUCKETS_S)
        )
        # Built before any thread starts: the process executor forks
        # its workers here, and a fork must never clone a
        # multi-threaded parent (inherited locks could be held by
        # threads that do not exist in the child).
        self._executor = self._build_executor(memory_budget, store_tiers)
        #: The partial store (``None`` when it lives in worker processes).
        self.store = self._executor.store
        # Dimension-row updates must evict the affected cached partials,
        # or a long-lived factorized service would silently keep
        # serving pre-update predictions.  The subscription holds only
        # a weak reference, so a service dropped without close() can
        # still be garbage collected; its shim then no-ops.
        self_ref = weakref.ref(self)

        def _dispatch(event, _ref=self_ref):
            service = _ref()
            if service is not None:
                service._on_row_version(event)

        self._subscription = _dispatch
        self.db.subscribe(_dispatch)
        # Per-model, store and cache state is *sampled* at snapshot
        # time rather than double-counted per event.
        self.telemetry.registry.register_collector(self._collect)

    def _build_executor(self, memory_budget, store_tiers):
        """What requests execute on: here, the core over a store this
        service builds (and releases in :meth:`close`)."""
        # Local import: the store hands caches *to* the serve layer but
        # also builds on serve.cache, so a module-level import here
        # would re-enter the serve package mid-bootstrap.
        from repro.fx.store import PartialStore

        store = PartialStore(
            capacity_floats=budget_floats(memory_budget), tiers=store_tiers
        )
        return ServingCore(self.db, store)

    def _check_open(self) -> None:
        if self._closed:
            raise ModelError("this service is closed")

    # -- registration ------------------------------------------------------

    def register_gmm(
        self,
        name: str,
        model,
        spec: JoinSpec,
        *,
        strategy: str | None = None,
    ) -> RegisteredModel:
        """Register a fitted mixture (a ``GMMResult`` or the bare model)
        to serve with ``strategy`` (default :attr:`DEFAULT_STRATEGY`)."""
        return self._register(name, "gmm", spec, model, strategy)

    def register_nn(
        self,
        name: str,
        model,
        spec: JoinSpec,
        *,
        strategy: str | None = None,
    ) -> RegisteredModel:
        """Register a trained network (an ``NNResult`` or the bare MLP)
        to serve with ``strategy`` (default :attr:`DEFAULT_STRATEGY`)."""
        return self._register(name, "nn", spec, model, strategy)

    def _register(self, name, kind, spec, model, strategy) -> RegisteredModel:
        self._check_open()
        return self._executor.register(
            name, kind, spec, model, strategy or self.DEFAULT_STRATEGY
        )

    def swap_model(self, name: str, model) -> RegisteredModel:
        """Atomically replace ``name``'s fit with a refreshed one — see
        :meth:`ServingCore.swap <repro.serve.core.ServingCore.swap>`.
        Every request sees entirely the old or entirely the new fit."""
        self._check_open()
        return self._executor.swap(name, model)

    def unregister(self, name: str) -> None:
        self._executor.unregister(name)

    # -- lookup ------------------------------------------------------------

    @property
    def model_names(self) -> list[str]:
        return sorted(self._executor.registry())

    def __contains__(self, name: str) -> bool:
        return name in self._executor

    def model(self, name: str) -> RegisteredModel:
        return self._executor.model(name)

    # -- serving -----------------------------------------------------------

    def _serve(
        self, name: str, op: str, fact_features=None, fk_values=None
    ):
        """One synchronous request through the core, timed and traced."""
        self._check_open()
        registered = self._executor.model(name)
        if op == "predict_all":
            features = fks = None
            rows = registered.base.resolved.num_rows
        else:
            features, fks = registered.admit(op, fact_features, fk_values)
            rows = features.shape[0]
        with self.telemetry.tracer.trace(
            "serve.request", model=name, op=op, rows=rows
        ):
            outputs, meta = self._executor.execute(name, op, features, fks)
        registered.stats.add_requests(1)
        with self._stats_lock:
            self._calls[name, op] += 1
            self._call_seconds[name].observe(meta.elapsed)
        return outputs

    def predict(self, name: str, fact_features, fk_values) -> np.ndarray:
        """Model outputs for one normalized request batch.

        GMM models return hard cluster assignments; NN models return
        network outputs ``(n, n_out)``.
        """
        return self._serve(name, "predict", fact_features, fk_values)

    def score(self, name: str, fact_features, fk_values) -> np.ndarray:
        """Per-tuple log-likelihoods (GMM models only)."""
        return self._serve(name, "score", fact_features, fk_values)

    def predict_all(self, name: str) -> np.ndarray:
        """Predictions for every stored fact tuple, in storage order."""
        return self._serve(name, "predict_all")

    # -- adaptation --------------------------------------------------------

    def set_memory_budget(self, memory_budget: int | None) -> int:
        """Re-bound the store-wide partial budget mid-flight.

        ``memory_budget`` is bytes across every registered model (like
        the constructor knob); ``None`` lifts the bound.  Tightening
        sweeps the globally coldest partials immediately and returns
        the number of rows evicted — this is how adaptation scenarios
        model a deployment whose memory allotment is cut while traffic
        is in flight.  A service created without a ``memory_budget``
        takes one just the same; see
        :meth:`~repro.fx.store.PartialStore.set_budget`.  The live
        bound is ``store_stats().capacity_floats``.
        """
        if memory_budget is not None and memory_budget <= 0:
            raise ModelError(
                f"memory_budget must be positive bytes or None, "
                f"got {memory_budget}"
            )
        return self._executor.set_budget(budget_floats(memory_budget))

    # -- invalidation ------------------------------------------------------

    def _on_row_version(self, event: RowVersionEvent) -> None:
        """Evict updated RIDs' partials from every cache of every model."""
        self._executor.invalidate(event.relation, event.rids, event.positions)

    # -- bookkeeping -------------------------------------------------------

    def _collect(self, buffer) -> None:
        """Sample the request book, the per-model serving books, then
        the executor's store and cache series, into a registry snapshot.

        Runs outside the registry lock; each model's group comes from
        one :meth:`ServingStats.snapshot` and one hold of its lock, so
        it is internally consistent.
        """
        with self._stats_lock:
            calls = dict(self._calls)
            seconds = {
                name: cell.value()
                for name, cell in self._call_seconds.items()
            }
        for (name, op), count in calls.items():
            buffer.counter(
                "repro_service_requests_total", count,
                help="Requests served on the caller's thread, by model and op",
                model=name, op=op,
            )
        for name, value in seconds.items():
            buffer.histogram(
                "repro_service_request_seconds", value,
                help="Wall seconds of requests served on the caller's thread",
                model=name,
            )
        for name, registered in self._executor.registry().items():
            stats = registered.stats.snapshot()
            with registered.lock:
                planner = registered.planner_stats
                decisions = sorted(planner.decisions.items())
                dense_mults = planner.dense_mults
                factorized_mults = planner.factorized_mults
            labels = {"model": name}
            buffer.counter(
                "repro_batches_total", stats.batches,
                help="Batches executed", **labels,
            )
            buffer.counter(
                "repro_service_rows_total", stats.rows,
                help="Rows served, by model", **labels,
            )
            buffer.counter(
                "repro_service_wall_seconds_total", stats.wall_seconds,
                help="Accumulated serving wall seconds", **labels,
            )
            buffer.counter(
                "repro_service_pages_read_total", stats.io.pages_read,
                help="Heap pages read while serving this model",
                **labels,
            )
            if registered.strategy != MATERIALIZED:
                buffer.counter(
                    "repro_invalidated_rids_total", stats.invalidated_rids,
                    help="Cached partial rows dropped by dimension updates",
                    **labels,
                )
            if registered.strategy != ADAPTIVE:
                continue
            for strategy, count in decisions:
                buffer.counter(
                    "repro_planner_decisions_total", count,
                    help="Adaptive planner strategy choices",
                    strategy=strategy, **labels,
                )
            # The cost-model delta is exported as the two estimates
            # (both monotone counters); dashboards subtract them — a
            # signed "saving" series would not be a legal Prometheus
            # counter.
            buffer.counter(
                "repro_planner_dense_mults_total", dense_mults,
                help="Cost-model multiplications the dense path would pay",
                **labels,
            )
            buffer.counter(
                "repro_planner_factorized_mults_total", factorized_mults,
                help="Cost-model multiplications the factorized path "
                     "would pay (cache-discounted)",
                **labels,
            )
        self._executor.collect(buffer)

    def stats(self, name: str) -> ServingStats:
        return self._executor.model(name).stats

    def cache_stats(self, name: str) -> list[CacheStats]:
        """Per-dimension partial-cache counters (factorized only; merged
        across worker processes in process mode), monotone across
        :meth:`swap_model`."""
        return self._executor.cache_stats(name)

    def store_stats(self):
        """The shared partial store's counters
        (:class:`~repro.fx.store.StoreStats`) — ``shared_attachments``
        counts registrations that reused another model's cache."""
        return self._executor.sample()[1]

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Detach from update notifications and telemetry, give every
        registered model's caches back and drop the spill directory
        (idempotent); from here on the service refuses work."""
        if self._closed:
            return
        self._closed = True
        self.db.unsubscribe(self._subscription)
        # Detach the collector or later snapshots of a shared Telemetry
        # would sample this dead service forever.
        self.telemetry.registry.unregister_collector(self._collect)
        self._executor.close()
        if self.store is not None:
            # This service built the store, so it releases it.
            self.store.release_spill()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(models={self.model_names})"
