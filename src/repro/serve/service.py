"""The serving facade: registered models answering batched requests.

A :class:`ModelService` is the serving core
(:class:`~repro.serve.core.ServingCore`) called on the caller's thread
— zero workers, no queue: it owns a database handle and, through the
core, a registry of fitted models, each bound to a join spec and a
serving strategy.  Every request is timed and its page I/O attributed
to the model that served it, so a deployment can watch throughput and
I/O per model exactly the way the training side watches per-algorithm
cost — the ROADMAP's "serve heavy traffic" goal with the paper's
bookkeeping discipline.  Registration, swap and invalidation are the
core's, shared with both :mod:`repro.runtime` executors.

Factorized models draw their partial caches from a shared
:class:`~repro.fx.store.PartialStore` (one per service by default;
pass your own to share across services): registering two models whose
partials are value-identical — the same fitted parameters over the
same join — makes them share cached slabs instead of each holding a
private copy.  ``memory_budget`` (bytes) caps the *total* resident
partial payload across every registered model — the store evicts the
globally coldest partials across cache boundaries when an insert
pushes past it, so multi-model deployments degrade to recomputation
instead of unbounded growth (see ``docs/tuning.md`` for sizing).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.strategies import FACTORIZED, resolve_serving_strategy
from repro.errors import ModelError
from repro.join.bnl import DEFAULT_BLOCK_PAGES
from repro.join.spec import JoinSpec
from repro.obs import as_telemetry
from repro.serve.cache import CacheStats
from repro.serve.core import (
    RegisteredModel,
    ServingCore,
    ServingStats,
    budgeted_store,
    check_memory_budget,
)
from repro.storage.catalog import Database

__all__ = ["ModelService", "RegisteredModel", "ServingStats"]


class ModelService:
    """Registers fitted models and serves predictions over normalized data.

    >>> service = ModelService(db)
    >>> service.register_nn("ratings", nn_result, spec)
    >>> outputs = service.predict("ratings", fact_features, fk_values)
    >>> service.stats("ratings").rows_per_second
    """

    def __init__(
        self,
        db: Database,
        *,
        block_pages: int = DEFAULT_BLOCK_PAGES,
        store=None,
        memory_budget: int | None = None,
        store_tiers: tuple = (),
        telemetry=None,
    ) -> None:
        self.db = db
        self.block_pages = block_pages
        if store is not None and memory_budget is not None:
            # Reconfiguring a caller-owned (possibly shared) store
            # behind its back would install a bound its other users
            # never asked for.
            raise ModelError(
                "pass either a store or a memory_budget, not both; "
                "set capacity_floats on the store you share instead"
            )
        if store_tiers and store is not None:
            raise ModelError(
                "store_tiers configures the store this service would "
                "build; pass tiers= on the store you share instead"
            )
        check_memory_budget(memory_budget, store_tiers)
        self._core = ServingCore(
            db,
            budgeted_store(memory_budget, tiers=store_tiers)
            if store is None else store,
            block_pages=block_pages,
            owns_store=store is None,
        )
        self.store = self._core.store
        # telemetry: None/False -> shared no-op; True -> fresh enabled;
        # a Telemetry instance -> shared (one snapshot across layers).
        self.telemetry = as_telemetry(telemetry)
        registry = self.telemetry.registry
        self._m_requests = registry.counter(
            "repro_service_requests_total",
            help="Requests served by ModelService, by model and op",
            labelnames=("model", "op"),
        )
        self._m_request_seconds = registry.histogram(
            "repro_service_request_seconds",
            help="ModelService request wall seconds",
            labelnames=("model",),
        )
        registry.register_collector(self._collect)
        # Dimension-row updates must evict the affected cached partials
        # here too, or a long-lived factorized service would silently
        # keep serving pre-update predictions.  The subscription holds
        # only a weak reference, so a service dropped without close()
        # can still be garbage collected; its shim then no-ops.
        self_ref = weakref.ref(self)

        def _dispatch(event, _ref=self_ref):
            service = _ref()
            if service is not None:
                service._core.invalidate(event.relation, event.rids)

        self._subscription = _dispatch
        self.db.subscribe(_dispatch)

    # -- registration ------------------------------------------------------

    def register_gmm(
        self,
        name: str,
        model,
        spec: JoinSpec,
        *,
        strategy: str = FACTORIZED,
    ) -> RegisteredModel:
        """Register a fitted mixture (a ``GMMResult`` or the bare model)."""
        return self._core.register(
            name, "gmm", spec, model, resolve_serving_strategy(strategy)
        )

    def register_nn(
        self,
        name: str,
        model,
        spec: JoinSpec,
        *,
        strategy: str = FACTORIZED,
    ) -> RegisteredModel:
        """Register a trained network (an ``NNResult`` or the bare MLP)."""
        return self._core.register(
            name, "nn", spec, model, resolve_serving_strategy(strategy)
        )

    def swap_model(self, name: str, model) -> RegisteredModel:
        """Atomically replace ``name``'s fit with a refreshed one — see
        :meth:`ServingCore.swap <repro.serve.core.ServingCore.swap>`.
        Every request sees entirely the old or entirely the new fit."""
        return self._core.swap(name, model)

    def unregister(self, name: str) -> None:
        self._core.unregister(name)

    # -- lookup ------------------------------------------------------------

    @property
    def model_names(self) -> list[str]:
        return sorted(self._core.registry())

    def __contains__(self, name: str) -> bool:
        return name in self._core

    def model(self, name: str) -> RegisteredModel:
        return self._core.model(name)

    # -- serving -----------------------------------------------------------

    def _serve(
        self, name: str, op: str, fact_features=None, fk_values=None
    ):
        """One synchronous request through the core, timed and traced."""
        registered = self._core.model(name)
        if op == "predict_all":
            features = fks = None
            rows = registered.predictor.resolved.num_rows
        else:
            features, fks = registered.admit(op, fact_features, fk_values)
            rows = features.shape[0]
        with self.telemetry.tracer.trace(
            "serve.request", model=name, op=op, rows=rows
        ):
            outputs, meta = self._core.execute(name, op, features, fks)
        self._m_requests.labels(model=name, op=op).inc()
        self._m_request_seconds.labels(model=name).observe(meta.elapsed)
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

    def close(self) -> None:
        """Detach from update notifications and give every registered
        model's caches back to the store (idempotent)."""
        self.db.unsubscribe(self._subscription)
        self.telemetry.registry.unregister_collector(self._collect)
        self._core.close()

    # -- bookkeeping -------------------------------------------------------

    def _collect(self, buffer) -> None:
        """Sample per-model serving stats, then the core's store and
        cache series, into a registry snapshot.

        Runs outside the registry lock; each model's group comes from
        one :meth:`ServingStats.snapshot`, so it is internally
        consistent.
        """
        for name, registered in self._core.registry().items():
            stats = registered.stats.snapshot()
            labels = {"model": name}
            buffer.counter(
                "repro_service_rows_total", stats.rows,
                help="Rows served by ModelService", **labels,
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
        self._core.collect(buffer)

    def stats(self, name: str) -> ServingStats:
        return self._core.model(name).stats

    def cache_stats(self, name: str) -> list[CacheStats]:
        """Per-dimension partial-cache counters (factorized only),
        monotone across :meth:`swap_model`."""
        return self._core.cache_stats(name)

    def store_stats(self):
        """The shared partial store's counters
        (:class:`~repro.fx.store.StoreStats`) — ``shared_attachments``
        counts registrations that reused another model's cache."""
        return self.store.stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelService(models={self.model_names})"
