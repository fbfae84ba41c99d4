# Test oracle, not product code: the dict / ``OrderedDict`` cache that
# ``src/repro/serve/cache.py`` held up to PR 15, moved here verbatim
# when PR 16 replaced it with the array-backed slot table.
# ``tests/serve/test_cache_differential.py`` drives both with the same
# schedules; ``tests/serve/test_cache.py`` times them against each
# other.  Do not fix or tidy anything below this line.  (PR 19 made
# ``SpillSlab.put`` a block write; ``_demote`` calls it with one row.)
# The local-bound half — ``capacity`` / ``capacity_floats``,
# ``_over_capacity``, ``_would_evict``, ``_admit``,
# ``_evict_over_capacity`` and the row-too-wide warning — was deleted
# with the same code in the product, once the store budget became the
# only bound.  The TinyLFU frequency sketch, its rank and its victim
# sample went when the product's governor kept LRU as its one victim
# order.  Batch pins —
# ``pin`` / ``unpin``, the ``_pins`` refcounts and the pin checks in
# the victim API — went the same way once one lock per cache made
# them redundant.
"""A bounded LRU cache of per-RID partial rows.

Dimension relations small enough to pin make serving trivially cheap:
every partial is computed once and reused forever.  When a dimension is
too large to pin, the serving layer bounds memory with this cache —
partials for hot RIDs stay resident (the Zipf-skewed FK distributions of
:mod:`repro.data.synthetic` make this the common case), cold RIDs are
recomputed from the base relation on demand.

A cache has no bound of its own: every computed row is admitted and
only a store's budget governor evicts, least recently used first.

The cache is thread-safe: one internal lock — the only lock a cache
has — serializes lookups, invalidations and counter reads, so
dimension-update events arriving on an updater thread can evict safely
while a serving thread is mid-lookup.  :meth:`PartialCache.get_many`
holds it across lookup → miss compute → insert, which is what makes
invalidation race-free: an :meth:`~PartialCache.invalidate` serializes
either wholly before the insert (the compute then reads the
already-updated pages — events fire after the write) or wholly after
it (the fresh-but-stale row is dropped).  A stale partial can never
survive an invalidation.

The cache is deliberately model-agnostic: values are flat float64 rows
(whatever a :mod:`~repro.serve.partials` builder produced), keys are
RIDs.  Consumers never build one directly — they get
a :class:`~repro.fx.sharding.ShardedPartialCache` from a
:class:`~repro.fx.store.PartialStore`.  Hit/miss/eviction counters feed the
:class:`~repro.serve.service.ModelService` bookkeeping, mirroring how
:class:`~repro.storage.buffer.BufferPool` accounts page caching.
:meth:`PartialCache.invalidate` supports the dimension-update
eviction path of :mod:`repro.runtime`.

A cache takes part in a *store-wide* budget (:class:`~repro.fx.store.PartialStore` with
``capacity_floats``).  Two small hooks make that possible:

* an :class:`AccessClock` — a counter shared by every cache under one
  store; each hit and insert stamps the entry with the next tick, so
  recency is comparable *across* caches, not just within one LRU;
* the victim API (:meth:`eviction_candidates` /
  :meth:`evict_if_coldest`) — the store's governor pools each
  cache's deficit-covering LRU-tail candidates and evicts in global
  tick order: strict global LRU.  Such evictions are counted as ``cross_evictions``.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import ModelError
from repro.fx.tiers import (
    TIER_SPILL,
    compress,
    decompress,
    float_equivalents,
)
from repro.obs.trace import current_span

_FLOAT_BYTES = 8


class AccessClock:
    """A thread-safe monotonic counter shared by every cache of a store.

    Each hit or insert stamps the touched entry with ``tick()``, which
    is what makes "least recently used" well-defined *across* caches:
    a store-wide budget sweep compares ticks from different caches and
    evicts the globally coldest entry first.
    """

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def tick(self) -> int:
        """The next global timestamp (strictly increasing)."""
        with self._lock:
            self._value += 1
            return self._value


@dataclass(frozen=True)
class EvictionCandidate:
    """One cache's coldest entry, as seen by the governor.

    Sorting candidates by ``rank`` — the tick — is pure global LRU.
    """

    cache: "PartialCache"
    key: int
    tick: int

    @property
    def rank(self) -> int:
        return self.tick


class Residency(NamedTuple):
    """What one cache — or, added up, one whole store — holds right
    now, read without taking any lock.

    Every field is a plain int the owning cache keeps current, so the
    readers that cannot afford to contend with ``get_many`` (the
    budget governor's within-budget check, a process worker publishing
    its header row) load it directly; a torn read can only mis-size one
    sweep, which the next corrects.  ``floats`` is the budget truth:
    resident float64 values plus the float-equivalents of compressed
    payloads (spilled rows charge disk, not memory).  Levels add up
    with :meth:`total`.
    """

    floats: int = 0
    compressed_floats: int = 0      # of ``floats``: compressed-tier charge
    spilled_bytes: int = 0
    demotions: int = 0
    promotions: int = 0

    @classmethod
    def total(cls, records) -> "Residency":
        """The field-wise sum of ``records`` (all zero for none)."""
        return cls(*map(sum, zip(*records)))

    @property
    def bytes(self) -> int:
        """Resident payload in bytes (8 per budget float)."""
        return self.floats * _FLOAT_BYTES

    @property
    def compressed_bytes(self) -> int:
        return self.compressed_floats * _FLOAT_BYTES


def add_fields(a, b):
    """``a + b`` for two stats dataclasses of one type, field by field:
    numbers (and nested stats) add, per-key dicts merge, and a bound
    is ``None`` (unbounded) as soon as either side's is — so a new
    field needs no aggregation code."""
    total = {}
    for spec in fields(a):
        x, y = getattr(a, spec.name), getattr(b, spec.name)
        if x is None or y is None:
            total[spec.name] = None
        elif isinstance(x, dict):
            total[spec.name] = {
                key: x.get(key, 0) + y.get(key, 0) for key in {**x, **y}
            }
        else:
            total[spec.name] = x + y
    return type(a)(**total)


def _counter(**kwargs):
    """A monotonic :class:`CacheStats` field — one that keeps counting
    across cache generations (see :meth:`CacheStats.counters`)."""
    return field(metadata={"counter": True}, **kwargs)


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time cache counters.

    ``evictions`` counts local capacity evictions,
    ``cross_evictions`` the subset of memory-pressure evictions driven
    by a store-wide budget (another cache's insert pushed the store
    over its global ``capacity_floats``), and ``invalidations`` the
    rows dropped by dimension-update events — three different causes,
    counted separately so memory pressure is never mistaken for data
    churn.  ``+`` aggregates across caches (:func:`add_fields`).
    """

    hits: int = _counter(default=0)
    misses: int = _counter(default=0)
    evictions: int = _counter(default=0)
    entries: int = 0
    bytes_resident: int = 0
    invalidations: int = _counter(default=0)
    cross_evictions: int = _counter(default=0)
    # Tiered residency (see repro.fx.tiers): compressed rows still
    # charge the budget (their float-equivalents are included in
    # bytes_resident); spilled rows charge disk only.  demotions /
    # promotions count tier transitions keyed by the *target* tier
    # ("drop" for a demotion that fell off the ladder).
    compressed_entries: int = 0
    spilled_entries: int = 0
    compressed_floats_resident: int = 0
    compressed_bytes_resident: int = 0
    spilled_bytes: int = 0
    demotions: dict = _counter(default_factory=dict)
    promotions: dict = _counter(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    __add__ = add_fields

    def counters(self) -> "CacheStats":
        """Only the monotonic counters — what a retired cache
        generation leaves behind.

        Gauges (entries, residency) are zeroed and the capacities set
        to 0, the additive identity of ``+``, so folding the result
        into a live generation's stats inflates only the counters.
        """
        return CacheStats(
            **{
                spec.name: getattr(self, spec.name)
                for spec in fields(self)
                if spec.metadata.get("counter")
            },
        )


class PartialCache:
    """LRU map of ``rid -> partial row``.

    ``clock`` — an :class:`AccessClock` shared
    with sibling caches — opts this cache into a store-wide budget:
    every hit and insert is stamped with a global tick so a
    :class:`~repro.fx.store.PartialStore` governor can compare recency
    across caches and evict the globally coldest entries first.  All
    lookups go through :meth:`get_many`, which resolves hits, computes
    every miss in one vectorized call, and returns rows aligned with
    the requested keys.
    """

    def __init__(
        self,
        *,
        clock: AccessClock | None = None,
        tiers: tuple = (),
        spill=None,
    ) -> None:
        self._clock = clock
        self._ticks: dict[int, int] = {}
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._floats_resident = 0
        # The demotion ladder (repro.fx.tiers).  Budget eviction walks
        # a victim down these rungs instead of dropping it; an empty
        # tuple keeps the pre-tier drop-on-evict behavior, bit for bit.
        self._tiers = tuple(tiers)
        if TIER_SPILL in self._tiers and spill is None:
            raise ModelError(
                "the 'spill' tier needs an on-disk slab; pass spill="
            )
        self._spill = spill
        # key -> (tier, payload, width); payload per repro.fx.tiers.
        self._compressed: OrderedDict[int, tuple] = OrderedDict()
        # key -> (width, heap position) in the spill slab.
        self._spilled: OrderedDict[int, tuple[int, int]] = OrderedDict()
        self._compressed_floats = 0
        self._spilled_bytes = 0
        # The cache's one lock.  Serializes lookups against
        # invalidations: dimension-update events arrive on the
        # updater's thread while a service thread may be mid-get_many,
        # and get_many holds it across compute → insert so an
        # invalidate can never land between the two (module docstring).
        self._lock = threading.RLock()
        self._zero_counters()

    def _zero_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.cross_evictions = 0
        self.demotions: dict[str, int] = {}
        self.promotions: dict[str, int] = {}
        # Scalar twins of the two dicts, for lock-free readers
        # (residency()): a plain int load can never see a dict
        # mid-resize.
        self.demotions_total = 0
        self.promotions_total = 0

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: int) -> bool:
        key = int(key)
        return (
            key in self._rows
            or key in self._compressed
            or key in self._spilled
        )

    def residency(self) -> Residency:
        """This cache's :class:`Residency`, read lock-free."""
        return Residency(
            self.floats_resident,
            self._compressed_floats,
            self._spilled_bytes,
            self.demotions_total,
            self.promotions_total,
        )

    @property
    def floats_resident(self) -> int:
        """Budget floats currently charged: resident float64 values
        plus the float-equivalents of compressed payloads (spilled
        rows charge disk, not memory)."""
        return self._floats_resident + self._compressed_floats

    @property
    def bytes_resident(self) -> int:
        """Resident cache payload in bytes (8 per budget float)."""
        return self.floats_resident * _FLOAT_BYTES

    def _remove(self, key: int) -> int:
        """Drop ``key`` from whichever tier holds it; returns the
        budget floats freed (0 for a spilled row — it charged none)."""
        row = self._rows.pop(key, None)
        if row is not None:
            self._ticks.pop(key, None)
            self._floats_resident -= row.size
            return row.size
        entry = self._compressed.pop(key, None)
        if entry is not None:
            self._ticks.pop(key, None)
            tier, _, width = entry
            freed = float_equivalents(tier, width)
            self._compressed_floats -= freed
            return freed
        spilled = self._spilled.pop(key, None)
        if spilled is not None:
            self._ticks.pop(key, None)
            width, position = spilled
            self._spill.free(width, position)
            self._spilled_bytes -= width * _FLOAT_BYTES
        return 0

    def _demote(self, key: int) -> int:
        """Walk ``key`` one step down the tier ladder; returns the
        budget floats freed.

        The target is the first configured tier whose residual charge
        is *strictly* below the current one — a demotion that frees
        nothing (a 1-float row "compressed" to float32 still charges
        one float) would stall the governor's deficit loop.  When no
        rung gains, the row is dropped outright and the demotion is
        counted under ``"drop"``.  Spilled rows are terminal: they
        charge no memory, so only invalidation removes them.
        """
        row = self._rows.get(key)
        if row is not None:
            current = row.size
            width = current
            values = row
            next_rungs = self._tiers
        else:
            entry = self._compressed.get(key)
            if entry is None:
                return 0
            tier, payload, width = entry
            current = float_equivalents(tier, width)
            values = decompress(tier, payload)
            next_rungs = self._tiers[self._tiers.index(tier) + 1:]
        tick = self._ticks.get(key, 0)
        for target in next_rungs:
            gain = current - float_equivalents(target, width)
            if gain <= 0:
                continue
            self._remove(key)
            if target == TIER_SPILL:
                # The slab's block API (PR 19), one row at a time.
                position = int(self._spill.put(values)[0])
                self._spilled[key] = (width, position)
                self._spilled_bytes += width * _FLOAT_BYTES
            else:
                self._compressed[key] = (
                    target, compress(target, values), width,
                )
                self._compressed_floats += float_equivalents(target, width)
            self._ticks[key] = tick
            self.demotions[target] = self.demotions.get(target, 0) + 1
            self.demotions_total += 1
            return gain
        freed = self._remove(key)
        self.demotions["drop"] = self.demotions.get("drop", 0) + 1
        self.demotions_total += 1
        return freed

    def _insert_resident(self, key: int, row: np.ndarray, tick) -> None:
        """Insert a float64 row into the resident tier."""
        self._rows[key] = row
        if tick is not None:
            self._ticks[key] = tick
        self._floats_resident += row.size

    def _promote(self, keys: list[int], tick) -> int:
        """Re-promote ``keys`` from the compressed/spilled tiers to
        resident float64; returns how many rows came back.

        Spilled keys are grouped by row width so each width pays one
        page-batched :meth:`~repro.fx.tiers.SpillSlab.read_rows` call —
        the sequential read that makes a spilled partial cheaper than
        a gather+rebuild.  Promoted rows bypass admission (they were
        admitted once already; demotion was memory policy, not a
        verdict on their worth) and land at the MRU end.
        """
        rows: dict[int, np.ndarray] = {}
        by_width: dict[int, tuple[list[int], list[int]]] = {}
        for key in keys:
            entry = self._compressed.get(key)
            if entry is not None:
                tier, payload, _ = entry
                rows[key] = decompress(tier, payload)
                self.promotions[tier] = self.promotions.get(tier, 0) + 1
                continue
            spilled = self._spilled.get(key)
            if spilled is not None:
                width, position = spilled
                ks, ps = by_width.setdefault(width, ([], []))
                ks.append(key)
                ps.append(position)
        for width, (ks, ps) in by_width.items():
            data = self._spill.read_rows(width, ps)
            for key, values in zip(ks, data):
                rows[key] = values.copy()
                self.promotions[TIER_SPILL] = (
                    self.promotions.get(TIER_SPILL, 0) + 1
                )
        for key, values in rows.items():
            self._remove(key)
            self._insert_resident(key, values, tick)
            self.promotions_total += 1
        return len(rows)

    def get_many(
        self,
        keys: np.ndarray,
        compute: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Rows for ``keys`` (distinct RIDs), computing misses in one batch.

        ``compute`` receives the missing keys as an int64 array and must
        return one row per key, in order.  Computed rows are returned to
        the caller even when the cache immediately evicts them (a
        request wider than the capacity still gets correct results —
        only reuse across requests is lost).
        """
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ModelError(f"keys must be 1-D, got shape {keys.shape}")
        with self._lock:
            # One global tick per call, stamped on every key this
            # batch touches: batch-granular recency is plenty for
            # eviction ordering, and it keeps traffic on the store's
            # shared clock lock at O(1) per batch instead of O(keys).
            batch_tick = (
                self._clock.tick() if self._clock is not None else None
            )
            missing =[k for k in keys.tolist() if k not in self._rows]
            if missing and (self._compressed or self._spilled):
                promotable = [
                    k for k in missing
                    if k in self._compressed or k in self._spilled
                ]
                if promotable:
                    span = current_span()
                    if span is not None:
                        with span.child("store.promote") as promote_span:
                            promoted = self._promote(
                                promotable, batch_tick
                            )
                            promote_span.set("rows", float(promoted))
                    else:
                        self._promote(promotable, batch_tick)
                    missing = [k for k in missing if k not in self._rows]
            if missing:
                computed = np.asarray(
                    compute(np.asarray(missing, dtype=np.int64)),
                    dtype=np.float64,
                )
                if computed.shape[0] != len(missing):
                    raise ModelError(
                        f"compute returned {computed.shape[0]} rows for "
                        f"{len(missing)} missing keys"
                    )
                fresh = dict(zip(missing, computed))
            else:
                fresh = {}
            self.hits += keys.size - len(missing)
            self.misses += len(missing)
            # Attribute this call's outcome to the in-flight request's
            # span (thread-local read; None when tracing is off).
            span = current_span()
            if span is not None:
                span.add("cache.hits", keys.size - len(missing))
                span.add("cache.misses", len(missing))
            out = np.empty(
                (keys.size, self._row_width(fresh)), dtype=np.float64
            )
            for position, key in enumerate(keys.tolist()):
                cached = self._rows.get(key)
                if cached is not None:
                    self._rows.move_to_end(key)
                    if batch_tick is not None:
                        self._ticks[key] = batch_tick
                    out[position] = cached
                else:
                    out[position] = fresh[key]
            for key, row in fresh.items():
                self._insert_resident(key, row, batch_tick)
            return out

    # -- store-wide budget hooks (see the module docstring) ----------------

    def eviction_candidates(
        self, deficit_floats: int
    ) -> list[EvictionCandidate]:
        """LRU-tail candidates covering ``deficit_floats``.

        The store's budget governor pools every cache's candidates
        and evicts in global tick order until the deficit is covered —
        see :class:`EvictionCandidate`.  Each cache offers its
        LRU-coldest rows, just enough to cover the whole deficit alone
        (the worst case: every victim lives here).
        """
        out: list[EvictionCandidate] = []
        covered = 0
        with self._lock:
            # Compressed rows still charge the budget, so they are
            # candidates too (demoting one walks it further down the
            # ladder; they demoted before today's residents, so they
            # rank colder).  Spilled rows charge nothing — never
            # offered.
            charged = itertools.chain(
                (
                    (key, float_equivalents(tier, width))
                    for key, (tier, _, width) in self._compressed.items()
                ),
                ((key, row.size) for key, row in self._rows.items()),
            )
            for key, charge in charged:
                out.append(
                    EvictionCandidate(
                        cache=self, key=key, tick=self._ticks.get(key, 0)
                    )
                )
                covered += charge
                if covered >= deficit_floats:
                    break
            return out

    def evict_if_coldest(self, key: int) -> int:
        """Cross-cache-evict ``key`` if still charged.

        Returns the budget floats freed (0 when the key was
        invalidated or evicted between the governor's scan and this
        call — the governor then simply rescans).  With tiers
        configured the row is demoted one rung instead of dropped.
        """
        with self._lock:
            if key in self._rows or key in self._compressed:
                freed = (
                    self._demote(key) if self._tiers
                    else self._remove(key)
                )
            else:
                return 0
            if freed <= 0:
                return 0  # pragma: no cover - demote always frees
            self.cross_evictions += 1
            # The governor runs on the thread of the batch whose insert
            # broke the budget, so the cross-eviction lands on that
            # batch's span — the attribution that matters.
            span = current_span()
            if span is not None:
                span.add("cache.cross_evictions")
            return freed

    def invalidate(self, keys: np.ndarray) -> int:
        """Drop the given RIDs if cached; returns how many were resident.

        Used by the dimension-update eviction path: unlike capacity
        evictions, invalidations are counted separately because they
        signal data change, not memory pressure.
        """
        dropped = 0
        with self._lock:
            for key in np.asarray(keys).ravel().tolist():
                key = int(key)
                if key in self:
                    # A stale partial must never outlive its updated
                    # source row — whatever tier it sits in, spilled
                    # copies included.
                    self._remove(key)
                    dropped += 1
            self.invalidations += dropped
        return dropped

    def _row_width(self, fresh: dict[int, np.ndarray]) -> int:
        if fresh:
            return next(iter(fresh.values())).shape[0]
        if self._rows:
            return next(iter(self._rows.values())).shape[0]
        return 0

    def stats(self) -> CacheStats:
        with self._lock:
            held = self.residency()
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                entries=len(self._rows),
                bytes_resident=held.bytes,
                invalidations=self.invalidations,
                cross_evictions=self.cross_evictions,
                compressed_entries=len(self._compressed),
                spilled_entries=len(self._spilled),
                compressed_floats_resident=held.compressed_floats,
                compressed_bytes_resident=held.compressed_bytes,
                spilled_bytes=held.spilled_bytes,
                demotions=dict(self.demotions),
                promotions=dict(self.promotions),
            )

    def drop_spilled(self) -> None:
        """Forget every spilled entry *without* per-row frees — used
        when the owning store deletes the spill files wholesale."""
        with self._lock:
            for key in self._spilled:
                self._ticks.pop(key, None)
            self._spilled.clear()
            self._spilled_bytes = 0

    def clear(self) -> None:
        """Drop all entries and zero the counters."""
        with self._lock:
            self._rows.clear()
            self._ticks.clear()
            self._floats_resident = 0
            for width, position in self._spilled.values():
                self._spill.free(width, position)
            self._spilled.clear()
            self._spilled_bytes = 0
            self._compressed.clear()
            self._compressed_floats = 0
            self._zero_counters()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"PartialCache(entries={stats.entries}, "
            f"hit_rate={stats.hit_rate:.2f})"
        )
