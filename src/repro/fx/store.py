"""Cross-model sharing — and store-wide governance — of cached partials.

Before the store existed, every registered model owned its partial
caches outright: registering the same fitted model twice (a blue/green
deploy, an A/B control arm, two services fronting one model) doubled
the resident partial bytes and halved the effective hit rate.  The
store fixes this by keying caches on *partial fingerprints*: a
deterministic digest of everything a partial row's value depends on —
the builder kind, the model parameters that enter the computation, and
the dimension relation the rows come from.  Two models whose
fingerprints match would compute bit-identical partial rows for every
RID, so they can safely share one cache; models with different
parameters get different fingerprints and never collide.

:meth:`PartialStore.acquire` returns a
:class:`~repro.fx.sharding.ShardedPartialCache` — the first acquirer
of a fingerprint creates it, later acquirers attach to it.
:meth:`release` detaches; the cache and its resident rows are dropped
when the last holder leaves.  Sharing has no off switch:
fingerprint-equal models compute bit-identical rows, so a private copy
is never better — a caller that wants isolation builds its own store.

**Store-wide memory budget.**  A cache has no bound of its own — a
per-cache bound only sees its own residency, so `q` fingerprints each
"within bounds" could still sum to q× the memory the host has.
Constructing the store with ``capacity_floats`` installs one global
budget across *every* resident partial in *every* cache, and its
governor is the only thing that evicts.  Enforcement is cross-cache:
every row an access touches takes a fresh stamp from a shared
:class:`~repro.serve.cache.AccessClock` — one stamp per row, distinct
across every cache — and whenever an insert pushes the store over
budget the governor (:meth:`enforce_budget`) evicts the globally
coldest entries — oldest stamp first — regardless of which cache they
live in.  A hot fingerprint therefore naturally takes share from a
cold one instead of each being boxed into a static slice.

Caches are only dropped wholesale when their last holder releases them
(``_Entry.refs``).  Rows are evicted one cache at a time, each under
that cache's lock, which a batch holds from lookup to the copy of its
rows: a sweep waits out the batch in flight and can never take a
partial mid-use.  The budget overshoots by what each batch inserts
until the sweep after it runs.  ``store_stats()`` reports the global
``bytes_resident``, the per-fingerprint shares, and the number of
cross-cache evictions.

Invalidation is unchanged: holders call ``invalidate`` on the caches
they acquired (a stale partial must never outlive its updated source
row).  With sharing, the first holder's invalidation already evicts
the RIDs for everyone — later holders' calls find nothing and drop
zero rows, which keeps per-model ``invalidated_rids`` counters
approximate under sharing (a documented attribution trade, like
shared buffer-pool stats).

**Process workers.**  A worker process of the process executor runs
this same class, in its own private memory, with no
``capacity_floats`` of its own: the budget is global and enforced by
the parent's deficit-bounded :meth:`PartialStore.trim` sweeps, so a
hot worker can use budget a cold one is not using.  The worker writes
the store's :meth:`~PartialStore.residency` into its row of a shared
header segment after every message that can change it; that row is
all the parent's governor ever reads.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ModelError
from repro.fx.sharding import ShardedPartialCache
from repro.fx.tiers import TIER_SPILL, validate_tiers
from repro.serve.cache import AccessClock, CacheStats, Residency, add_fields

#: Once the governor trips, it trims down to ``capacity *
#: GOVERNOR_HYSTERESIS`` instead of exactly to capacity, so the
#: steady-state overshoot of one batch's inserts doesn't re-trip it
#: every batch.
GOVERNOR_HYSTERESIS = 0.9


def low_watermark(capacity_floats: int) -> int:
    """Where a tripped governor trims to — the one watermark both
    governors (this store's and the process executor's) use."""
    return max(1, int(capacity_floats * GOVERNOR_HYSTERESIS))


def plan_trims(resident: list[int], budget: int) -> list[int]:
    """Deficit-bounded per-worker trim amounts (floats) for the process
    executor's governor.

    The global deficit is ``sum(resident) - budget``; it is taken from
    the largest residents first, each worker's share capped by its own
    residency, the total capped by the deficit — one sweep never
    over-evicts, and a worker below its fair share is never touched
    while a larger one can cover the deficit alone.
    """
    deficit = sum(resident) - budget
    trims = [0] * len(resident)
    if deficit <= 0:
        return trims
    order = sorted(
        range(len(resident)), key=lambda i: resident[i], reverse=True
    )
    remaining = deficit
    for index in order:
        take = min(resident[index], remaining)
        if take <= 0:
            break
        trims[index] = int(take)
        remaining -= take
        if remaining <= 0:
            break
    return trims


@dataclass(frozen=True)
class StoreStats:
    """Point-in-time store counters.

    ``caches`` counts live fingerprints; ``attachments`` the models
    currently holding them; ``shared_attachments`` how many of those
    attached to a cache someone else had already created — the direct
    measure of cross-model reuse.  ``cache`` aggregates the usual
    :class:`~repro.serve.cache.CacheStats` across every live cache.

    Governance fields: ``capacity_floats`` is the store-wide budget
    (``None`` = unbounded), ``cross_evictions`` how many rows the
    budget governor evicted across cache boundaries (counted at the
    store so the total survives caches being released), and
    ``fingerprints`` the per-fingerprint resident-byte shares —
    watching a hot fingerprint grow its share at a cold one's expense
    is exactly the budget working as intended.
    """

    caches: int
    attachments: int
    shared_attachments: int
    cache: CacheStats
    capacity_floats: int | None = None
    cross_evictions: int = 0
    fingerprints: dict[str, int] = field(default_factory=dict)
    # How many times the budget governor *tripped* (one count per
    # over-budget enforce_budget call, not per evicted row) — the
    # low watermark's regression metric.
    governor_sweeps: int = 0

    # Merges the per-worker stores of the process executor.
    __add__ = add_fields

    @property
    def bytes_resident(self) -> int:
        return self.cache.bytes_resident

    @property
    def compressed_bytes_resident(self) -> int:
        """Payload bytes held by the compressed (float32) tier."""
        return self.cache.compressed_bytes_resident

    @property
    def spilled_bytes(self) -> int:
        """Bytes of partial rows parked in on-disk spill heaps."""
        return self.cache.spilled_bytes

    @property
    def tier_demotions(self) -> dict:
        """Tier transitions down the ladder, keyed by target tier
        (``"drop"`` when a row fell off the end)."""
        return self.cache.demotions

    @property
    def tier_promotions(self) -> dict:
        """Re-promotions back to resident, keyed by source tier."""
        return self.cache.promotions


class _Entry:
    __slots__ = ("cache", "refs")

    def __init__(self, cache: ShardedPartialCache) -> None:
        self.cache = cache
        self.refs = 1


class PartialStore:
    """Fingerprint-keyed registry of shared, globally budgeted caches.

    ``tiers`` applies to every cache the store creates.
    ``capacity_floats`` is the global budget across all
    fingerprints, enforced by cross-cache eviction (see the module
    docstring) — the one memory bound there is.  All bookkeeping is
    thread-safe — the runtime registers models while traffic is live.
    """

    def __init__(
        self,
        *,
        capacity_floats: int | None = None,
        tiers=(),
    ) -> None:
        if capacity_floats is not None and capacity_floats <= 0:
            raise ModelError(
                f"store capacity_floats must be positive or None, "
                f"got {capacity_floats}"
            )
        self.capacity_floats = capacity_floats
        # The demotion ladder new caches walk under budget pressure
        # (see repro.fx.tiers); () keeps the drop-on-evict behavior.
        self.tiers = validate_tiers(tiers)
        self._governor_sweeps = 0
        # Spill-tier backing directory, created when a slab first
        # writes; the finalizer is the leak backstop for stores that
        # are never closed.
        self._spill_root: Path | None = None
        self._spill_finalizer = None
        self._entries: dict[str, _Entry] = {}
        self._key_of_cache: dict[int, str] = {}
        self._shared_attachments = 0
        self._cross_evictions = 0
        self._clock = AccessClock()
        self._lock = threading.Lock()
        # Serializes budget sweeps.  Lock order is strictly
        # governor -> registry snapshot -> one cache at a time; no code
        # path asks for this lock while holding a cache lock, which is
        # what keeps cross-cache eviction deadlock-free.
        self._governor_lock = threading.Lock()

    def acquire(self, fingerprint: str) -> ShardedPartialCache:
        """The shared cache for ``fingerprint`` (created on first use);
        later acquirers of a live fingerprint share the existing cache.
        Every cache stamps its accesses on the store's clock and calls
        the store's governor after each batch that added charge, so a
        budget imposed at any time has an eviction order to follow.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                entry.refs += 1
                self._shared_attachments += 1
                return entry.cache
            cache = ShardedPartialCache(
                clock=self._clock,
                governor=self,
                tiers=self.tiers,
                spill_dir=(
                    self._spill_directory if TIER_SPILL in self.tiers
                    else None
                ),
            )
            self._entries[fingerprint] = _Entry(cache)
            self._key_of_cache[id(cache)] = fingerprint
            return cache

    def release(self, cache: ShardedPartialCache) -> None:
        """Detach from a cache; drop it when the last holder leaves.

        Refcounting is what makes the budget story safe at the cache
        granularity: a cache is only ever dropped wholesale here, by
        its last holder — never by budget pressure, which works row by
        row.
        """
        with self._lock:
            key = self._key_of_cache.get(id(cache))
            if key is None:
                raise ModelError(
                    "cache was not acquired from this store (or was "
                    "already fully released)"
                )
            entry = self._entries[key]
            entry.refs -= 1
            if entry.refs > 0:
                return
            del self._entries[key]
            del self._key_of_cache[id(cache)]

    def _spill_directory(self) -> Path:
        """The spill tier's backing directory (one per store), created
        on first use — every slab asks each time it creates a heap
        file, so spilling after :meth:`release_spill` opens a new
        directory, finalizer and all.  The finalizer removes it even
        if the store is never closed — spill files must not outlive
        the process."""
        with self._lock:
            if self._spill_root is None:
                root = Path(tempfile.mkdtemp(prefix="repro-spill-"))
                self._spill_root = root
                self._spill_finalizer = weakref.finalize(
                    self, shutil.rmtree, str(root), ignore_errors=True
                )
            return self._spill_root

    def release_spill(self) -> None:
        """Drop every spilled entry and delete the spill directory.

        Idempotent; safe on stores that never spilled.  Resident and
        compressed rows are untouched — only the on-disk tier goes.
        """
        with self._lock:
            entries = list(self._entries.values())
            finalizer = self._spill_finalizer
            self._spill_root = None
            self._spill_finalizer = None
        for entry in entries:
            entry.cache.drop_spilled()
        if finalizer is not None:
            finalizer()

    def close(self) -> None:
        """Drop every cache registration and clear the caches.

        Every cache carries a back-reference to its governor (this
        store) while the store's registry references the caches — a
        reference cycle only the garbage collector would reclaim.
        ``close()`` breaks it deterministically and gives the slabs
        back now, not at some later collection.  Also removes the
        spill directory and everything in it.  Idempotent.
        """
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
            self._key_of_cache.clear()
        for entry in entries:
            entry.cache.drop_spilled()
            entry.cache.clear()
        self.release_spill()

    # -- the budget governor -----------------------------------------------

    def enforce_budget(self) -> int:
        """Evict globally coldest rows until within budget.

        Called by every governed cache at the end of a ``get_many``
        that inserted or promoted rows (with no cache lock held); safe
        to call manually.  Returns the number of rows evicted.  Victims
        are chosen across *all* caches,
        oldest stamp first (see :meth:`PartialCache.eviction_candidates
        <repro.serve.cache.PartialCache.eviction_candidates>`).
        """
        # One read of the bound: set_budget(None) may lift it mid-sweep.
        capacity = self.capacity_floats
        if capacity is None:
            return 0
        evicted = 0
        with self._governor_lock:
            if self.floats_resident <= capacity:
                return 0
            # Tripped.  Count the sweep once, then trim down to the
            # low watermark so the next few batches' overshoot fits
            # without re-tripping.
            self._governor_sweeps += 1
            low = low_watermark(capacity)
            while True:
                deficit = self.floats_resident - low
                if deficit <= 0:
                    break
                swept, _ = self._sweep(deficit)
                evicted += swept
                if not swept:
                    break  # nothing left that charges the budget
        return evicted

    def _sweep(self, deficit_floats: int) -> tuple[int, int]:
        """One candidate-pool pass: every cache offers its
        deficit-covering coldest rows as arrays, the pool is ordered by
        stamp (no two charged rows share one), cut where the cumulative
        freed charge covers ``deficit_floats``, and each cache evicts
        its share in one call.  Returns ``(rows evicted, floats
        freed)``; ``(0, 0)`` means nothing was evictable (only spilled
        rows, or raced away between scan and evict — callers re-check
        and converge later).
        """
        with self._lock:
            caches = [e.cache for e in self._entries.values()]
        offers = [
            cache.eviction_candidates(deficit_floats) for cache in caches
        ]
        if not offers:
            return 0, 0
        keys, ticks, frees = map(np.concatenate, zip(*offers))
        owner = np.repeat(
            np.arange(len(caches)), [offer[0].size for offer in offers]
        )
        rank = np.argsort(ticks)
        cut = np.searchsorted(np.cumsum(frees[rank]), deficit_floats) + 1
        # One grouping of the victims by cache, each group in rank order.
        victims = rank[:cut]
        victims = victims[np.argsort(owner[victims], kind="stable")]
        bounds = np.searchsorted(
            owner[victims], np.arange(len(caches) + 1)
        )
        swept = freed_total = 0
        for index, cache in enumerate(caches):
            mine = keys[victims[bounds[index]:bounds[index + 1]]]
            if mine.size:
                rows, freed = cache.evict(mine)
                swept += rows
                freed_total += freed
        if swept:
            with self._lock:
                self._cross_evictions += swept
        return swept, freed_total

    def trim(self, floats: int) -> int:
        """Evict up to ``floats`` of the globally coldest rows,
        whatever this store's own ``capacity_floats``; returns the rows
        evicted.

        This is the process executor's budget mechanism: the parent
        reads per-worker residency off the workers' latest replies,
        plans deficit-bounded per-worker amounts (:func:`plan_trims`)
        and each worker trims its own store — same victim order as
        :meth:`enforce_budget`, but the *bound* lives in the parent.
        """
        if floats <= 0:
            return 0
        evicted = 0
        with self._governor_lock:
            remaining = floats
            while remaining > 0:
                swept, freed = self._sweep(remaining)
                if not swept:
                    break
                evicted += swept
                remaining -= freed
        return evicted

    def set_budget(self, capacity_floats: int | None) -> int:
        """Re-bound the store-wide budget mid-flight; returns evictions.

        Tightening the budget immediately sweeps the globally coldest
        rows down to the new bound (one
        :meth:`enforce_budget` pass); loosening (or ``None`` =
        unbounded) just stops future sweeps.  This is the mechanism
        behind adaptation scenarios — a deployment whose memory
        allotment is cut mid-run must degrade by eviction, not by
        failure.  A budget can be imposed at any time, on a store
        created without one too: every cache stamps recency whatever
        the bound.
        """
        if capacity_floats is not None and capacity_floats <= 0:
            raise ModelError(
                f"store capacity_floats must be positive or None, "
                f"got {capacity_floats}"
            )
        self.capacity_floats = capacity_floats
        if capacity_floats is None:
            return 0
        return self.enforce_budget()

    def residency(self) -> Residency:
        """Every live cache's :class:`~repro.serve.cache.Residency`,
        added up (lock-free below the registry snapshot)."""
        with self._lock:
            entries = list(self._entries.values())
        return Residency.total(entry.cache.residency() for entry in entries)

    @property
    def floats_resident(self) -> int:
        """Budget floats across every live cache (lock-free below the
        registry snapshot, like :meth:`residency`)."""
        with self._lock:
            caches = [entry.cache for entry in self._entries.values()]
        return sum(cache.floats_resident for cache in caches)

    def __len__(self) -> int:
        """Live caches (distinct fingerprints held)."""
        return len(self._entries)

    @property
    def bytes_resident(self) -> int:
        """Resident partial payload across every live cache, in bytes."""
        return self.residency().bytes

    @property
    def governor_sweeps(self) -> int:
        """How many times :meth:`enforce_budget` tripped (not rows)."""
        return self._governor_sweeps

    def stats(self) -> StoreStats:
        with self._lock:
            entries = dict(self._entries)
            shared_attachments = self._shared_attachments
            cross_evictions = self._cross_evictions
        total = CacheStats()
        shares: dict[str, int] = {}
        for key, entry in entries.items():
            total = total + entry.cache.stats()
            shares[key] = entry.cache.bytes_resident
        return StoreStats(
            caches=len(entries),
            attachments=sum(e.refs for e in entries.values()),
            shared_attachments=shared_attachments,
            cache=total,
            capacity_floats=self.capacity_floats,
            cross_evictions=cross_evictions,
            fingerprints=shares,
            governor_sweeps=self._governor_sweeps,
        )

    def clear(self) -> None:
        """Drop every cache's entries (holders keep their handles)."""
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            entry.cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"PartialStore(caches={stats.caches}, "
            f"attachments={stats.attachments}, "
            f"bytes_resident={stats.bytes_resident}, "
            f"capacity_floats={self.capacity_floats})"
        )
