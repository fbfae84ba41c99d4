"""The serving core: one registration record, one lifecycle.

Everything around the paper's serving algorithm — dedup the batch's
foreign keys, fetch or build one partial per distinct RID, gather, run
the head — is written here once and configured three ways:

* :class:`~repro.serve.service.ModelService` calls the core on the
  caller's thread (no queue, no workers);
* ``ServingRuntime(executor="thread")`` — a ``ModelService`` subclass —
  puts a request queue and N dispatcher threads in front of the same
  core;
* ``ServingRuntime(executor="process")`` puts the same queue and N
  dispatchers in front of
  :class:`~repro.runtime.procpool.ProcessExecutor`, a subclass that
  sends each batch whole to an idle worker process — and every worker
  is again this core, over a store in its own private memory.

:class:`ServingCore` owns a :class:`~repro.fx.store.PartialStore` and
a registry of :class:`RegisteredModel` records and implements the
lifecycle rules: ``register`` (build one predictor and the planner
once, roll back on a lost race), ``execute`` (pin → one
``DedupPlan.for_batch`` → plan the batch's arm → predict in that arm →
record), ``invalidate`` (drop updated RIDs from every joined model's
caches), ``swap`` (build → flip under the registry lock → drain
in-flight batches → retire, carrying stats and counter baselines) and
``close``.  A subclass
replaces only the substrate primitives ``_build`` / ``_run`` /
``_retire`` and the stats readers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core.strategies import (
    FACTORIZED,
    MATERIALIZED,
    resolve_serving_strategy,
)
from repro.errors import ModelError
from repro.fx.dedup import DedupPlan
from repro.join.spec import JoinSpec
from repro.obs.trace import NOOP_SPAN
from repro.serve.cache import CacheStats
from repro.serve.predictor import make_predictor
from repro.storage.iostats import IOSnapshot

#: Per-batch planning: a ``BatchPlanner`` picks the arm the
#: registration's one predictor answers each batch in (the runtime's
#: default).
ADAPTIVE = "adaptive"

# How long ``swap`` waits for batches still executing on the retiring
# registration before tearing it down anyway.
SWAP_DRAIN_TIMEOUT_S = 30.0

# The monotonic clock's stated resolution: the floor for any recorded
# request duration.  ``perf_counter`` deltas on very fast batches can
# round to (near) zero, which would undercount wall time and report
# absurd rows/sec; clamping each accumulation to one clock tick keeps
# the throughput estimate conservative instead of divergent.
_MIN_TICK = time.get_clock_info("perf_counter").resolution

# op -> predictor method (``predict_all`` streams the stored fact
# relation and is handled apart: it has no request arrays to dedup).
_CALLS = {"predict": "predict", "score": "score_samples"}


def _planner():
    # Local import: importing anything under repro.runtime runs that
    # package's __init__, which imports the runtime facade, which
    # imports this module — a module-level import here would re-enter
    # it mid-bootstrap.
    from repro.runtime import planner

    return planner


def budget_floats(memory_budget: int | None) -> int | None:
    """A byte budget as the store's unit (resident float64 values)."""
    return None if memory_budget is None else max(1, memory_budget // 8)


def check_memory_budget(memory_budget, store_tiers) -> None:
    if memory_budget is not None and memory_budget <= 0:
        raise ModelError(
            f"memory_budget must be positive bytes, got {memory_budget}"
        )
    if store_tiers and memory_budget is None:
        raise ModelError(
            "store_tiers requires memory_budget: the tiers are "
            "the governor's demotion ladder, and without a budget "
            "nothing is ever demoted"
        )


def collect_store(
    buffer, bytes_resident, capacity_floats, sweeps, tiered
) -> None:
    """The store-wide series every runtime exports, whoever holds the
    numbers (a :class:`~repro.fx.store.PartialStore`, or the residency
    the process workers' replies carry).  ``tiered`` is falsy without a demotion ladder, else
    ``(compressed bytes, spilled bytes, demotions, promotions)`` with
    the two transition counts keyed by tier (``None`` = unlabeled
    total)."""
    buffer.gauge(
        "repro_store_bytes_resident", bytes_resident,
        help="Resident partial payload across every cache (bytes)",
    )
    if capacity_floats is not None:
        buffer.gauge(
            "repro_store_capacity_floats", capacity_floats,
            help="Store-wide partial budget (float64 values)",
        )
    buffer.counter(
        "repro_store_governor_sweeps_total", sweeps,
        help="Times the budget governor actually swept "
             "(the low watermark suppresses per-batch trips)",
    )
    if not tiered:
        return
    compressed, spilled, demotions, promotions = tiered
    for tier, resident in (("compressed", compressed), ("spill", spilled)):
        buffer.gauge(
            "repro_store_tier_bytes_resident", resident,
            help="Partial payload resident per tier (bytes)",
            tier=tier,
        )
    for name, counts, help in (
        ("demotions", demotions,
         "Rows demoted down the tier ladder ('drop' = no rung gained, "
         "row freed)"),
        ("promotions", promotions,
         "Rows promoted back to the resident tier, by source tier"),
    ):
        for tier, count in sorted(counts.items()):
            buffer.counter(
                f"repro_store_tier_{name}_total", count, help=help,
                **({} if tier is None else {"tier": tier}),
            )


@dataclass
class ServingStats:
    """Rolling bookkeeping for one registered model.

    The core folds each executed batch in through :meth:`record`, the
    facade the requests it served through :meth:`add_requests` (a
    coalesced micro-batch serves many), an invalidation the cached rows
    it dropped through :meth:`add_invalidated`.  All hold one lock, so
    concurrent workers (the runtime) lose no increments.  Read single
    fields directly if a torn-but-monotonic value is fine; use
    :meth:`snapshot` for a consistent multi-field picture (``rows`` and
    ``batches`` from the same instant).
    """

    requests: int = 0
    rows: int = 0
    wall_seconds: float = 0.0
    io: IOSnapshot = field(default_factory=IOSnapshot)
    batches: int = 0
    invalidated_rids: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(
        self, rows: int, seconds: float, io: IOSnapshot | None = None
    ) -> None:
        """Fold one timed batch in, guarding sub-resolution durations.

        ``seconds`` must come from a monotonic clock
        (``time.perf_counter``); each delta is clamped below by the
        clock's resolution so a burst of fast batches cannot accumulate
        (near-)zero wall time.
        """
        with self._lock:
            self.batches += 1
            self.rows += rows
            self.wall_seconds += max(seconds, _MIN_TICK)
            if io is not None:
                self.io = self.io + io

    def add_requests(self, count: int) -> None:
        """Count ``count`` requests served by a recorded batch."""
        with self._lock:
            self.requests += count

    def add_invalidated(self, count: int) -> None:
        with self._lock:
            self.invalidated_rids += count

    def snapshot(self) -> "ServingStats":
        """A tear-free copy: every field taken under one lock hold."""
        with self._lock:
            return ServingStats(
                requests=self.requests,
                rows=self.rows,
                wall_seconds=self.wall_seconds,
                io=self.io,
                batches=self.batches,
                invalidated_rids=self.invalidated_rids,
            )

    @property
    def rows_per_second(self) -> float:
        """Serving throughput (0 until the first timed request)."""
        return self.rows / self.wall_seconds if self.wall_seconds else 0.0


@dataclass(slots=True)
class ExecMeta:
    """What one executed batch cost — the one small result object a
    batch allocates; the facades feed stats, metrics and spans from it.

    ``decisions`` holds the planner's choice: none for a pinned
    strategy, else one.  ``scatter_seconds`` / ``gather_seconds`` are
    the process executor's two pipe phases, the send of the batch's
    frame and the wait for the worker's reply (``None`` in-process).
    """

    rows: int
    elapsed: float
    io: IOSnapshot
    decisions: tuple = ()
    references: int = 0            # rows × dimensions
    distinct: int = 0              # Σ per-dimension distinct RIDs
    scatter_seconds: float | None = None
    gather_seconds: float | None = None


# The additive identity of cache-counter baselines (see
# :meth:`CacheStats.counters <repro.serve.cache.CacheStats.counters>`).
_NO_BASELINE = CacheStats().counters()


@dataclass
class RegisteredModel:
    """One servable model: its predictor, planner and accumulated stats.

    ``strategy`` is ``"adaptive"`` (a planner picks each batch's arm) or
    a fixed serving strategy (``planner is None``); the predictor is
    built factorized unless the strategy is pinned materialized.  In
    the process executor's parent the predictor lives in the workers:
    the record then holds ``predictor=None`` and a model-less
    ``validator`` for submit-time shape checks, and the worker-side
    registry key (``generation``).
    """

    name: str
    kind: str                        # "gmm" | "nn"
    strategy: str                    # "adaptive" | fixed serving strategy
    # Registration-time inputs retained so a maintainer can rebuild
    # this registration around a refreshed fit (swap).
    spec: JoinSpec
    predictor: object | None
    planner: object | None = None
    validator: object | None = None
    generation: int = 0
    out_width: int = 0               # network output width (0 for GMMs)
    # Batches currently executing against this registration; swap
    # drains it to zero before tearing the registration down.
    inflight: int = 0
    # Final counter totals of cache generations retired by swap (one
    # CacheStats per dimension, gauges zeroed), folded into
    # ``cache_stats`` so exported counters never step backwards when a
    # swap rebuilds the caches.
    cache_baselines: list = field(default_factory=list)
    stats: ServingStats = field(default_factory=ServingStats)
    planner_stats: object = field(
        default_factory=lambda: _planner().PlannerStats()
    )
    fk_references: int = 0         # rows × dimensions, accumulated
    fk_distinct: int = 0           # Σ per-batch distinct RIDs
    lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        self.caches = (
            self.predictor.caches if self.predictor is not None else []
        )
        self.dimension_names = [
            dim.relation.name for dim in self.base.resolved.dimensions
        ]

    @property
    def base(self):
        """The predictor used for request normalization."""
        return self.predictor or self.validator

    @property
    def invalidated_rids(self) -> int:
        return self.stats.invalidated_rids

    @property
    def dedup_ratio(self) -> float:
        """FK references per distinct RID across every served batch —
        how much redundancy batching exposed for this model (1.0 until
        the first batch)."""
        if not self.fk_distinct:
            return 1.0
        return self.fk_references / self.fk_distinct

    def admit(self, op: str, fact_features, fk_values):
        """Submit-time validation, on the caller's thread: the op and
        the request's shapes; returns ``(features, fks)`` normalized to
        one float64 matrix and one int64 array per dimension."""
        if op not in _CALLS:
            raise ModelError(f"unknown op {op!r}; use 'predict'|'score'")
        if op == "score" and self.kind != "gmm":
            raise ModelError(
                f"model {self.name!r} is a {self.kind!r} model; "
                "score() is defined for GMMs"
            )
        base = self.base
        features = base._fact_features(fact_features)
        return features, base._fk_arrays(fk_values, features.shape[0])

    def choose(self, plan: DedupPlan):
        """This batch's ``(arm, PlanDecision | None)``: the planner's
        pick, or the pinned strategy."""
        if self.planner is None:
            return self.strategy, None
        hit_rates = tuple(
            cache.approx_hit_rate() for cache in self.caches
        )
        decision = self.planner.plan(plan, hit_rates)
        return decision.strategy, decision

    def record(self, meta: ExecMeta) -> None:
        """Fold one executed batch into the rolling bookkeeping."""
        with self.lock:
            self.stats.record(meta.rows, meta.elapsed, meta.io)
            self.fk_references += meta.references
            self.fk_distinct += meta.distinct
            for decision in meta.decisions:
                self.planner_stats.record(decision)

    def cache_stats(self) -> list[CacheStats]:
        """Aggregate partial-cache counters, one entry per dimension
        (none for a pinned-materialized registration).

        Counter totals of generations retired by a swap are folded in,
        so hits/misses/invalidations stay monotonic across a hot swap;
        gauges (entries, residency) reflect only the live generation.
        """
        stats = [cache.stats() for cache in self.caches]
        if self.cache_baselines:
            stats = [
                base + live
                for base, live in zip(self.cache_baselines, stats)
            ]
        return stats

    def continue_from(self, predecessor: "RegisteredModel") -> None:
        """Take over a retiring generation's bookkeeping (swap), so
        exported monotonic counters never step backwards."""
        with predecessor.lock:
            self.stats = predecessor.stats
            self.planner_stats = predecessor.planner_stats
            self.fk_references = predecessor.fk_references
            self.fk_distinct = predecessor.fk_distinct
        self.carry_cache_counters(predecessor)

    def carry_cache_counters(self, predecessor: "RegisteredModel") -> None:
        """Baseline the predecessor's cache counters — per dimension,
        and only where its cache object is *not* carried over.

        A dimension whose partials are fingerprint-identical gets the
        very same cache back from the store, and that cache's live
        counters already contain the predecessor's totals; baselining
        it too would count them twice.  Computed from the predecessor's
        state alone, so calling it again once the predecessor is
        quiescent just refreshes the totals.
        """
        baselines = predecessor.cache_baselines or (
            [_NO_BASELINE] * len(predecessor.caches)
        )
        self.cache_baselines = [
            base if live is retired
            else base + retired.stats().counters()
            for base, retired, live in zip(
                baselines, predecessor.caches, self.caches
            )
        ]


class ServingCore:
    """Registry + lifecycle of servable models over one partial store.

    Thread-safe: registration, swap and invalidation can race live
    ``execute`` calls.  ``store`` may be ``None`` only for a subclass
    whose caches live elsewhere (the process executor's parent).
    """

    def __init__(self, db, store) -> None:
        self.db = db
        self.store = store
        self._models: dict[object, RegisteredModel] = {}
        # Guards registry mutation vs iteration (stats snapshots,
        # invalidation fan-out, which arrives on the updater's thread)
        # — registration can race live traffic.
        self._registry_lock = threading.Lock()

    # -- lookup --------------------------------------------------------------

    def __contains__(self, key) -> bool:
        return key in self._models

    def get(self, key) -> RegisteredModel | None:
        return self._models.get(key)

    def model(self, key) -> RegisteredModel:
        try:
            return self._models[key]
        except KeyError:
            raise ModelError(
                f"no registered model {key!r}; have {sorted(self._models)}"
            ) from None

    def registry(self) -> dict[object, RegisteredModel]:
        """A snapshot of the registry, safe to iterate."""
        with self._registry_lock:
            return dict(self._models)

    # -- registration --------------------------------------------------------

    def register(
        self, name, kind, spec, model, strategy,
        *, key=None, predecessor=None,
    ) -> RegisteredModel:
        """Build and insert one registration.

        ``key`` is the registry key (the name unless given — process
        workers key by generation, so two generations of one name can
        be live while the parent swaps); ``predecessor`` is a live
        registration whose counters the new one continues.
        """
        key = name if key is None else key
        if key in self._models:
            raise ModelError(f"model {name!r} is already registered")
        if strategy != ADAPTIVE:
            strategy = resolve_serving_strategy(strategy)
        registered = self._build(
            name, kind, spec, model, strategy, predecessor
        )
        with self._registry_lock:
            # Re-check under the lock: a concurrent registration of
            # the same name must not be silently overwritten (which
            # would also strand the loser's store-held caches).
            lost = key in self._models
            if not lost:
                self._models[key] = registered
        if lost:
            self._retire(registered)
            raise ModelError(f"model {name!r} is already registered")
        return registered

    def _build(
        self, name, kind, spec, model, strategy, predecessor=None
    ) -> RegisteredModel:
        """The predictor, its caches and the planner for one
        registration, without touching the registry."""
        planner = None
        # Unless pinned materialized, the predictor draws its caches
        # from the shared store, keyed by partial fingerprint —
        # fingerprint-identical models share slabs.
        predictor = make_predictor(
            self.db, spec, model, kind=kind,
            strategy=MATERIALIZED if strategy == MATERIALIZED else FACTORIZED,
            store=self.store,
        )
        try:
            bare = predictor.model
            if strategy == ADAPTIVE:
                sizes = predictor.resolved.layout.sizes
                planner = _planner().BatchPlanner(
                    kind, sizes[0], tuple(sizes[1:]),
                    # The model's per-row work multiplier.
                    bare.params.n_components if kind == "gmm"
                    else bare.first_layer.weights.shape[0],
                )
            registered = RegisteredModel(
                name=name, kind=kind, strategy=strategy, spec=spec,
                predictor=predictor, planner=planner,
                out_width=bare.n_outputs if kind == "nn" else 0,
            )
            if predecessor is not None:
                registered.continue_from(predecessor)
        except BaseException:
            predictor.close()          # give shared caches back
            raise
        return registered

    def _retire(self, registered: RegisteredModel, successor=None) -> None:
        """Tear one registration down: fold its final cache counters
        into ``successor`` (swap) and give its caches back.

        Safe while stragglers still execute on it: closing only
        releases the store's refcounts, and predictors stay readable
        after close.
        """
        if successor is not None:
            successor.carry_cache_counters(registered)
        if registered.predictor is not None:
            registered.predictor.close()

    def swap(self, name, model) -> RegisteredModel:
        """Atomically replace ``name``'s fit with a refreshed one.

        The replacement is built completely before the registry
        changes and never overwrites the old registration in place;
        the registry pointer then flips under the lock, so a batch
        resolves entirely the old or entirely the new fit — never a
        torn mix.  Batches still executing on the old registration are
        drained (bounded by ``SWAP_DRAIN_TIMEOUT_S``) before it is
        retired.

        Serving stats, FK/invalidation counters and cache-counter
        baselines carry over, so exported monotonic counters never
        step backwards across a swap.  The new predictor draws from
        the same store — partials untouched by the refresh stay
        resident via fingerprint sharing, and only the changed ones
        rebuild.
        """
        current = self.model(name)
        replacement = self._build(
            name, current.kind, current.spec, model, current.strategy, current
        )
        with self._registry_lock:
            lost = self._models.get(name) is not current
            if not lost:
                self._models[name] = replacement
        if lost:
            # Lost a race with another swap or an unregister: tear the
            # built replacement down instead of the old registration.
            self._retire(replacement)
            raise ModelError(f"model {name!r} changed while swapping")
        deadline = time.perf_counter() + SWAP_DRAIN_TIMEOUT_S
        while time.perf_counter() < deadline:
            with current.lock:
                if current.inflight == 0:
                    break
            time.sleep(0.001)
        # In-flight batches kept bumping the old generation's counters
        # during the drain; retiring re-baselines them now that it is
        # quiescent (they only grew, so totals stay monotonic).
        self._retire(current, replacement)
        return replacement

    def unregister(self, key, successor=None) -> None:
        with self._registry_lock:
            registered = self._models.pop(key, None)
        if registered is None:
            raise ModelError(f"no model {key!r} to unregister")
        # Outside the registry lock: releasing shared caches takes the
        # store's own lock and never needs the registry.
        self._retire(registered, successor)

    # -- serving -------------------------------------------------------------

    def execute(
        self, key, op, features=None, fks=None, *, span=NOOP_SPAN
    ):
        """Serve one batch on the calling thread: ``(outputs, meta)``.

        ``features``/``fks`` are already normalized
        (:meth:`RegisteredModel.admit`); ``span`` is the caller's root
        span, under which the phases open as children.
        """
        registered = self._pin(key)
        try:
            outputs, meta = self._run(registered, op, features, fks, span)
        finally:
            with registered.lock:
                registered.inflight -= 1
        registered.record(meta)
        return outputs, meta

    def _pin(self, key) -> RegisteredModel:
        """Resolve ``key`` and count the batch in-flight on it.

        Re-checking the registry *after* the increment closes the
        window in which a swap could flip, see ``inflight == 0`` and
        retire the registration this batch is about to run on: either
        the flip is visible here (retry on the new registration) or
        the swap's drain sees this batch.
        """
        while True:
            registered = self.model(key)
            with registered.lock:
                registered.inflight += 1
            if self._models.get(key) is registered:
                return registered
            with registered.lock:
                registered.inflight -= 1

    def _run(self, registered, op, features, fks, span):
        # Note: under concurrency the I/O delta can double-count pages
        # read by overlapping batches of other models; it is an
        # attribution estimate, exactly like shared-disk stats in any
        # multi-tenant server.
        before = self.db.stats.snapshot()
        tick = time.perf_counter()
        if op == "predict_all":
            # Streams the stored fact relation block by block; every
            # block is its own batch with its own dedup plan.
            outputs = registered.predictor.predict_all()
            return outputs, ExecMeta(
                registered.predictor.resolved.num_rows,
                time.perf_counter() - tick,
                self.db.stats.snapshot() - before,
            )
        # The batch's one and only FK dedup: planner and predictor
        # both consume this plan, so each dimension is sorted once.
        with span.child("dedup"):
            plan = DedupPlan.for_batch(fks)
        with span.child("plan") as planning:
            strategy, decision = registered.choose(plan)
            planning.set("strategy", strategy)
            if decision is not None:
                planning.set("saving_rate", round(decision.saving_rate, 4))
        with span.child("predict"):
            outputs = getattr(registered.predictor, _CALLS[op])(
                features, fks, plan=plan, strategy=strategy
            )
        return outputs, ExecMeta(
            plan.rows,
            time.perf_counter() - tick,
            self.db.stats.snapshot() - before,
            () if decision is None else (decision,),
            plan.rows * plan.num_dimensions,
            sum(plan.distinct),
        )

    # -- invalidation --------------------------------------------------------

    def invalidate(self, relation, rids, positions=None) -> dict[str, int]:
        """Evict updated RIDs' partials from every model with caches
        joined to ``relation``; returns rows dropped per model name.

        Pinned-materialized models hold no derived state and read fresh pages
        on the next request.  ``positions`` (the touched heap rows) is
        for substrates with their own buffer pools; caches here are
        keyed by RID alone.
        """
        dropped: dict[str, int] = {}
        for registered in self.registry().values():
            for index, dim_name in enumerate(registered.dimension_names):
                if dim_name != relation or not registered.caches:
                    continue
                count = registered.caches[index].invalidate(rids)
                registered.stats.add_invalidated(count)
                dropped[registered.name] = (
                    dropped.get(registered.name, 0) + count
                )
        return dropped

    # -- bookkeeping ---------------------------------------------------------

    def cache_stats(self, key) -> list[CacheStats]:
        return self.model(key).cache_stats()

    def sample(self):
        """``({model: per-dimension CacheStats}, StoreStats)`` for every
        model with partial caches."""
        return (
            {
                registered.name: registered.cache_stats()
                for registered in self.registry().values()
                if registered.caches
            },
            self.store.stats(),
        )

    def set_budget(self, floats: int | None) -> int:
        return self.store.set_budget(floats)

    def collect(self, buffer) -> None:
        """Sample the store and every model's caches into a telemetry
        snapshot; each group is read atomically under its owner's
        lock."""
        store = self.store.stats()
        buffer.gauge(
            "repro_store_caches", store.caches,
            help="Live partial-cache fingerprints in the store",
        )
        buffer.counter(
            "repro_store_cross_evictions_total",
            store.cross_evictions,
            help="Rows evicted across cache boundaries by the "
                 "budget governor",
        )
        collect_store(
            buffer, store.bytes_resident, store.capacity_floats,
            store.governor_sweeps,
            self.store.tiers and (
                store.compressed_bytes_resident, store.spilled_bytes,
                store.tier_demotions, store.tier_promotions,
            ),
        )
        self.collect_models(buffer)

    def collect_models(self, buffer) -> None:
        """The per-model series: dedup ratio, and per dimension the
        counters of the caches this core's registrations hold."""
        for name, model in self.registry().items():
            with model.lock:
                dedup_ratio = model.dedup_ratio
            buffer.gauge(
                "repro_model_dedup_ratio", dedup_ratio,
                help="FK references per distinct RID across served "
                     "batches",
                model=name,
            )
            for dim_name, stats in zip(
                model.dimension_names, model.cache_stats()
            ):
                labels = {"model": name, "dimension": dim_name}
                buffer.counter(
                    "repro_cache_hits_total", stats.hits,
                    help="Partial-cache hits", **labels,
                )
                buffer.counter(
                    "repro_cache_misses_total", stats.misses,
                    help="Partial-cache misses", **labels,
                )
                buffer.counter(
                    "repro_cache_cross_evictions_total",
                    stats.cross_evictions,
                    help="Evictions forced by the store-wide budget",
                    **labels,
                )
                buffer.counter(
                    "repro_cache_invalidations_total",
                    stats.invalidations,
                    help="Rows dropped by dimension-update events",
                    **labels,
                )
                buffer.gauge(
                    "repro_cache_rows_resident", stats.entries,
                    help="Resident partial rows", **labels,
                )
                buffer.gauge(
                    "repro_cache_bytes_resident", stats.bytes_resident,
                    help="Resident partial payload (bytes)", **labels,
                )
                buffer.gauge(
                    "repro_cache_hit_ratio", stats.hit_rate,
                    help="hits / (hits + misses)", **labels,
                )

    def close(self) -> None:
        """Give every registration's caches back to the store
        (idempotent).  The store itself — its spill directory included
        — is released by whoever built it: the facade, or the process
        worker."""
        for registered in self.registry().values():
            self._retire(registered)
