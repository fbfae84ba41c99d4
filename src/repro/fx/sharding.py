"""RID-hash sharded partial caches for concurrent workers.

A single :class:`~repro.serve.cache.PartialCache` would serialize
every factorized batch on cache maintenance.  Instead the execution
core shards by RID hash: shard ``rid % num_shards``, each shard one
:class:`PartialCache` guarded by its own lock, so workers touching
disjoint RID ranges never contend on the same LRU — and a batch only
holds the lock of one shard at a time, for the shards its distinct
RIDs map to.  That per-shard lock (held across lookup → miss compute
→ insert) is also what makes dimension-update invalidation race-free;
the argument lives with the lock, in :mod:`repro.serve.cache`.  This
module adds no lock of its own around a shard, and no per-key work
either: a batch is partitioned across shards once (one stable sort of
the shard ids), each shard answers with array code, and a one-shard
cache — the inline service, every process worker — hands its shard's
array straight back.

``ShardedPartialCache`` is the one cache type consumers see: a
:class:`~repro.fx.store.PartialStore` hands out shared instances to
models with matching partial fingerprints, and a predictor built
without a store draws from a private store of its own.  This is the
only module that constructs a :class:`PartialCache`.

A shard has no bound of its own.  When the owning store carries a
global ``capacity_floats`` budget — the only bound there is — the
sharded cache participates in store-wide governance: a ``clock``
(shared :class:`~repro.serve.cache.AccessClock`) stamps every access
so recency is comparable across caches, a batch :meth:`pin`\\ s its
RIDs for the span of :meth:`get_many` (so concurrent batches cannot
thrash each other's in-use rows out), and the batch calls the
``governor``'s ``enforce_budget()`` once, with no shard lock held —
the lock order is always governor → one shard at a time, never a
shard held while asking for the governor, which is what keeps
cross-cache eviction deadlock-free.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.sync import ReadWriteLock
from repro.errors import ModelError
from repro.fx.tiers import TIER_SPILL, SpillSlab
from repro.serve.cache import (
    LRU_ADMISSION,
    AccessClock,
    CacheStats,
    PartialCache,
    Residency,
    as_rids,
)


class ShardedPartialCache:
    """``num_shards`` independently locked shards keyed by RID hash.

    ``admission`` selects each shard's victim ranking
    (``"lru"`` | ``"tinylfu"``, see :class:`PartialCache`); with hash
    placement every RID always maps to the same shard, so per-shard
    frequency sketches see that RID's full access stream.

    ``clock`` and ``governor`` are set by the owning
    :class:`~repro.fx.store.PartialStore` when it carries a store-wide
    ``capacity_floats`` budget: the clock stamps accesses with global
    ticks and the governor's ``enforce_budget()`` is invoked once per
    :meth:`get_many`, after all shard locks are released (see the
    module docstring for the lock-order argument).
    """

    def __init__(
        self,
        num_shards: int,
        *,
        admission: str = LRU_ADMISSION,
        clock: AccessClock | None = None,
        governor=None,
        allocator=None,
        tiers: tuple = (),
        spill_dir=None,
    ) -> None:
        if num_shards <= 0:
            raise ModelError(
                f"num_shards must be positive, got {num_shards}"
            )
        self.num_shards = num_shards
        self._governor = governor
        self._tiers = tuple(tiers)
        # One spill slab shared by every shard (it carries its own
        # lock); the owning store names the directory (a path, or a
        # callable asked at each heap creation) and deletes it
        # wholesale on close.
        self._spill = None
        if TIER_SPILL in self._tiers:
            if spill_dir is None:
                raise ModelError(
                    "the 'spill' tier needs a spill_dir to write to"
                )
            self._spill = SpillSlab(spill_dir)
        # One slab allocator may back every shard (it carries its own
        # lock): RID-hash placement already makes slots disjoint.
        self.shards = [
            PartialCache(
                admission=admission,
                clock=clock,
                allocator=allocator,
                tiers=self._tiers,
                spill=self._spill,
            )
            for _ in range(num_shards)
        ]
        self.admission = self.shards[0].admission
        # Tear-free aggregate stats: multi-shard mutators (get_many,
        # invalidate, clear) hold the *read* side for their whole
        # multi-shard span — they overlap freely, each shard's own
        # lock still guards its data — while stats() takes the *write*
        # side, so an aggregate can never observe a call half-applied
        # (hits counted in shard 0, misses not yet in shard 1).
        self._stats_guard = ReadWriteLock()

    def shard_of(self, key: int) -> int:
        """Which shard holds ``key`` (stable RID-hash placement)."""
        return int(key) % self.num_shards

    def _route(self, keys: np.ndarray, call):
        """``call(shard, the keys it owns)`` — in request order — for
        every shard ``keys`` touch: one partition of the batch, and the
        one place the placement rule is applied to it.  Returns
        ``(order, results)``; the results, concatenated, line up with
        ``keys[order]`` (``order`` is ``None`` for one shard: as asked)."""
        keys = as_rids(keys)
        if self.num_shards == 1:
            return None, ([call(self.shards[0], keys)] if keys.size else [])
        shard_ids = keys % self.num_shards
        order = np.argsort(shard_ids, kind="stable")
        bounds = np.searchsorted(
            shard_ids[order], np.arange(self.num_shards + 1)
        )
        return order, [
            call(shard, keys[order[bounds[i]:bounds[i + 1]]])
            for i, shard in enumerate(self.shards)
            if bounds[i + 1] > bounds[i]
        ]

    def get_many(
        self,
        keys: np.ndarray,
        compute: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Rows for ``keys``, shard by shard, misses computed per shard.

        Same contract as :meth:`PartialCache.get_many`; the compute
        callback may be invoked once per shard that has misses (still
        vectorized within each shard).  A one-shard cache returns its
        shard's array as is.

        Under store governance the batch's keys are pinned for the
        whole multi-shard span — a concurrent batch's budget
        enforcement can evict anything *except* rows this batch is
        mid-way through using — and the governor runs once at the end,
        with no shard lock held.
        """
        if np.ndim(keys) != 1:
            raise ModelError(f"keys must be 1-D, got shape {np.shape(keys)}")
        if len(keys) == 0:
            return np.zeros((0, 0))
        governed = self._governor is not None
        try:
            with self._stats_guard.read():
                if governed:
                    self.pin(keys)
                try:
                    order, rows = self._route(
                        keys, lambda s, owned: s.get_many(owned, compute)
                    )
                finally:
                    # Unpin even when compute raises (e.g. a dangling
                    # foreign key) — a leaked pin would shield its RIDs
                    # from budget eviction forever.
                    if governed:
                        self.unpin(keys)
        finally:
            # Enforce the budget even on failure (shards processed
            # before it already inserted fresh rows) — outside the
            # stats guard, since the governor may evict from *other*
            # caches and must never nest inside this cache's guard.
            if governed:
                self._governor.enforce_budget()
        if order is None:
            return rows[0]
        out = np.empty((order.size, rows[0].shape[1]))
        out[order] = np.concatenate(rows)
        return out

    def pin(self, keys: np.ndarray) -> None:
        """Pin ``keys`` in their shards (see :meth:`PartialCache.pin`)."""
        self._route(keys, PartialCache.pin)

    def unpin(self, keys: np.ndarray) -> None:
        """Release one pin reference per key (inverse of :meth:`pin`)."""
        self._route(keys, PartialCache.unpin)

    def invalidate(self, keys: np.ndarray) -> int:
        """Evict the given RIDs, each from the shard that owns it;
        returns rows dropped."""
        with self._stats_guard.read():
            return sum(self._route(keys, PartialCache.invalidate)[1])

    def clear(self) -> None:
        with self._stats_guard.read():
            for shard in self.shards:
                shard.clear()

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, key: int) -> bool:
        return int(key) in self.shards[self.shard_of(key)]

    def residency(self) -> Residency:
        """The shards' :class:`~repro.serve.cache.Residency`, added up
        (lock-free, like each shard's)."""
        return Residency.total(shard.residency() for shard in self.shards)

    @property
    def floats_resident(self) -> int:
        """Budget floats across all shards — the unit the store-wide
        ``capacity_floats`` budget is enforced in."""
        return self.residency().floats

    @property
    def bytes_resident(self) -> int:
        """Resident payload across all shards, in bytes."""
        return self.residency().bytes

    def drop_spilled(self) -> None:
        """Forget spilled entries in every shard and delete the spill
        files wholesale (the owning store's teardown path)."""
        for shard in self.shards:
            shard.drop_spilled()
        if self._spill is not None:
            self._spill.reset()

    def shard_stats(self) -> list[CacheStats]:
        """Per-shard counters, in shard order."""
        return [shard.stats() for shard in self.shards]

    def stats(self) -> CacheStats:
        """Aggregate counters across shards (duck-types ``PartialCache``).

        Tear-free: takes the stats guard's write side, which waits out
        every in-flight multi-shard mutator and blocks new ones for
        the (brief) duration of the aggregation — so cross-shard
        invariants like ``hits + misses ≡ 0 (mod shards touched)`` and
        ``bytes_resident == Σ entry widths`` hold in the result.
        """
        with self._stats_guard.write():
            first, *rest = self.shard_stats()
        return sum(rest, first)

    @property
    def hit_rate(self) -> float:
        return self.stats().hit_rate

    def approx_hit_rate(self) -> float:
        """Lock-free hit-rate estimate for the batch planner's hot path.

        Reads the shard counters without taking their locks — a torn
        read skews an estimate that only discounts a cost model, never
        correctness, and skipping the locks keeps per-batch planning
        from contending with concurrent ``get_many`` calls.
        """
        hits = sum(shard.hits for shard in self.shards)
        lookups = hits + sum(shard.misses for shard in self.shards)
        return hits / lookups if lookups else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"ShardedPartialCache(shards={self.num_shards}, "
            f"entries={stats.entries}, hit_rate={stats.hit_rate:.2f})"
        )
