"""A cache of per-RID partial rows, held in arrays.

Dimension relations small enough to hold whole make serving trivially
cheap: every partial is computed once and reused forever.  When a
dimension is too large for that, the serving layer bounds memory with
this cache — partials for hot RIDs stay resident (the Zipf-skewed FK
distributions of :mod:`repro.data.synthetic` make this the common
case), cold RIDs are recomputed from the base relation on demand.

Reuse is the paper's whole serving-time win, so the reuse itself is
array code: a cache's resident tier is one :class:`SlotTable` — a
direct-address map from key to slot, one float64 slab, a key column
and a recency stamp — and a warm lookup is one ``take`` of the map,
one ``take`` of the slab (straight into request order when the caller
passes its dedup plan's ``inverse``) and one column stamp, with no
per-key Python between the dedup plan and the predictor's GEMM.  The
demoted tiers (:mod:`repro.fx.tiers`) are slot tables too — float32
payloads, spill-heap positions — so a governor sweep demotes, and a
batch promotes, whole blocks of rows at a time.

A cache has no bound of its own: every computed row is admitted, and
memory is bounded by the owning :class:`~repro.fx.store.PartialStore`'s
store-wide budget (``capacity_floats``, in float64 values — the honest
unit when partial rows have very different widths across models),
whose governor is the only thing that evicts — the globally least
recently used rows first.

The cache is thread-safe: one internal lock — the only lock a cache
has — serializes lookups, invalidations, governor evictions and
counter reads.  :meth:`PartialCache.get_many` holds it across lookup →
miss compute → insert and hands back a copy of the rows, which is what
makes the rest race-free:

* invalidation — an :meth:`~PartialCache.invalidate` serializes either
  wholly before the insert (the compute then reads the already-updated
  pages — events fire after the write) or wholly after it (the
  fresh-but-stale row is dropped), so a stale partial can never
  survive an invalidation;
* budget eviction — a governor sweep can only reach a cache between
  two ``get_many`` calls, after the batch has copied its rows out, so
  no batch needs to protect the rows it is standing on.

The cache is deliberately model-agnostic: values are flat float64 rows
(whatever a :mod:`~repro.serve.partials` builder produced), keys are
RIDs.  Consumers get one per fingerprint from a
:class:`~repro.fx.store.PartialStore` — a
:class:`~repro.fx.sharding.ShardedPartialCache`, which adds the call
into the store's governor after each batch that inserted or promoted
rows.

Two small hooks let the store's governor work across caches:

* an :class:`AccessClock` — a counter shared by every cache under one
  store; every row a batch touches takes a fresh stamp from it, so one
  stamp per row orders recency within a table, across tiers and
  *across* caches, with no tie to break;
* the victim API (:meth:`eviction_candidates` / :meth:`evict`) — each
  cache offers its coldest rows as arrays, the store's governor orders
  the pool by stamp (strict global LRU) and each cache evicts its share
  in one call, counted as ``cross_evictions``.
"""

from __future__ import annotations

import sys
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import ModelError
from repro.fx.dedup import distinct_values
from repro.fx.tiers import (
    TIER_FLOAT32,
    TIER_RESIDENT,
    TIER_SPILL,
    SpillSlab,
    compress,
    decompress,
    float_equivalents,
)
from repro.linalg.groupsum import DIRECT_SPAN
from repro.obs.trace import current_span

_FLOAT_BYTES = 8

# The slab is resized by relocate-and-copy.  The first one is sized by
# the first miss batch exactly, a full one grows to this many times its
# size, and one left under a third in use shrinks to this many times
# its entries — so each resize is paid for by a constant-factor change
# in the number of rows, and live rows bound the memory held.
_SLAB_GROWTH = 1.5


class AccessClock:
    """A thread-safe monotonic counter shared by every cache of a store.

    Every row a cache touches takes a fresh stamp from :meth:`stamps`,
    which is what makes "least recently used" well-defined *across*
    caches: the stamps of a store's charged rows are pairwise distinct,
    so a store-wide budget sweep compares them and evicts the globally
    coldest row first.
    """

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def stamps(self, count: int) -> np.ndarray:
        """``count`` fresh timestamps, ascending and newer than any
        handed out before — one lock hold however many."""
        with self._lock:
            first = self._value + 1
            self._value += count
        return np.arange(first, first + count)


class Residency(NamedTuple):
    """What one cache — or, added up, one whole store — holds right
    now, read without taking any lock.

    Every field follows from plain ints the owning cache keeps current
    — its tier tables' row counts and widths, two counters — so the
    readers that cannot afford to contend with ``get_many`` (the
    budget governor's within-budget check, a process worker stamping
    its replies) load it directly; a torn read can only mis-size one
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

    ``cross_evictions`` counts the rows the store's budget governor
    evicted (or demoted) from this cache, and ``invalidations`` the
    rows dropped by dimension-update events — two different causes,
    counted separately so memory pressure is never mistaken for data
    churn.  ``evictions`` stays 0: nothing but the governor evicts, and
    the field is kept only for readers that add it to
    ``cross_evictions``.  ``+`` aggregates across caches
    (:func:`add_fields`).
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

        Gauges (entries, residency) are zeroed, the additive identity
        of ``+``, so folding the result into a live generation's stats
        inflates only the counters.
        """
        return CacheStats(**{
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.metadata.get("counter")
        })


def as_rids(keys) -> np.ndarray:
    """Any array-like of RIDs, any shape, as a flat int64 array."""
    return np.asarray(keys).ravel().astype(np.int64, copy=False)


def _first_occurrences(keys: np.ndarray):
    """The distinct ``keys`` in first-occurrence order, and each key's
    index among them (``None`` when ``keys`` were already distinct).
    Strictly increasing ``keys`` — a dedup plan's ``unique``, and so
    every serving miss list — are returned at once, unsorted."""
    if np.all(keys[1:] > keys[:-1]):
        return keys, None
    distinct = distinct_values(keys)
    if distinct.size == keys.size:
        return keys, None
    group = np.searchsorted(distinct, keys)
    first = np.full(distinct.size, keys.size)
    np.minimum.at(first, group, np.arange(keys.size))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return distinct[order], rank[group]


class SlotTable:
    """One tier of a cache: key → slot → slab row.

    A slot numbers one row of ``slab`` — a contiguous ``(capacity,
    width)`` block of ``dtype``: float64 rows for the resident tier,
    float32 payloads and spill-heap positions for the demoted ones —
    and one cell of each column: ``key`` (the way back) and ``tick``
    (the row's stamp from the store clock: ascending ``tick`` *is* LRU
    order).  A key finds its slot through a direct-address map,
    ``_direct[key]`` (−1: not held), when ``0 <= key < DIRECT_SPAN``,
    and through a sorted index of its own — ``_sparse_keys`` and the
    parallel ``_sparse_slots``, one ``searchsorted`` — otherwise, so
    every int64 key works and a dense one costs one ``take``.  Freed
    slots go on a stack and are reused before the slab grows.  The
    slab's capacity tracks the entries both ways, by relocate-and-copy
    (:meth:`_resize`): ×``_SLAB_GROWTH`` when the stack runs dry, back
    down when fewer than a third of the slots are in use — evicted
    memory is given back, not parked, and the map is rebuilt to the
    span of the keys still held.  Not locked: the owning cache's lock
    guards every call.
    """

    def __init__(self, dtype=np.float64) -> None:
        self._dtype = dtype
        self.clear()

    def clear(self) -> None:
        """Drop every row and give the slab back."""
        self.slab = np.empty((0, 0), dtype=self._dtype)
        self.key = np.empty(0, dtype=np.int64)
        self.tick = np.empty(0, dtype=np.int64)
        self._free = np.empty(0, dtype=np.intp)
        self._nfree = 0
        # Rows held, kept as one int (not capacity minus the free
        # stack) so the lock-free residency readers never see a
        # resize half done.
        self.rows = 0
        self._clear_index()

    def _clear_index(self) -> None:
        """An index holding no key: a one-key map, no sorted keys."""
        self._direct = np.full(1, -1, dtype=np.intp)
        self._sparse_keys = np.empty(0, dtype=np.int64)
        self._sparse_slots = np.empty(0, dtype=np.intp)

    @property
    def width(self) -> int:
        return self.slab.shape[1]

    @property
    def slots(self) -> np.ndarray:
        """Every held slot, ascending: the slots not on the free stack."""
        held = np.ones(self.tick.size, dtype=bool)
        held[self._free[:self._nfree]] = False
        return np.flatnonzero(held)

    @property
    def keys(self) -> np.ndarray:
        """Every key held, sorted."""
        return np.sort(self.key[self.slots])

    def find(self, keys: np.ndarray):
        """``(slots, found)``: which ``keys`` hold a row, and where
        (where not ``found`` the slot is −1 or some other entry's).

        A key the map does not cover is clipped onto one it does, and
        the ``key`` column tells the two apart."""
        if not self.rows:
            return np.zeros(keys.size, np.intp), np.zeros(keys.size, bool)
        slots = self._direct.take(keys, mode="clip")
        found = self.key.take(slots) == keys    # −1 reads the last slot
        found &= slots >= 0
        if self._sparse_keys.size:
            at = self._sparse_keys.searchsorted(keys)
            sparse = self._sparse_keys.take(at, mode="clip") == keys
            slots = np.where(
                sparse, self._sparse_slots.take(at, mode="clip"), slots
            )
            found |= sparse
        return slots, found

    def _index(self, keys: np.ndarray, slots: np.ndarray) -> None:
        """Point the not-held ``keys`` at ``slots``: the map grows
        (×``_SLAB_GROWTH``, up to ``DIRECT_SPAN``) to cover the largest
        key it takes, the rest go into the sorted index."""
        direct = (keys >= 0) & (keys < DIRECT_SPAN)
        if not direct.all():
            sparse = ~direct
            order = np.argsort(keys[sparse])
            added = keys[sparse][order]
            at = self._sparse_keys.searchsorted(added)
            self._sparse_keys = np.insert(self._sparse_keys, at, added)
            self._sparse_slots = np.insert(
                self._sparse_slots, at, slots[sparse][order]
            )
            keys, slots = keys[direct], slots[direct]
        if keys.size:
            span = int(keys.max()) + 1
            if span > self._direct.size:
                grown = np.full(
                    min(
                        max(span, int(self._direct.size * _SLAB_GROWTH)),
                        DIRECT_SPAN,
                    ),
                    -1, dtype=np.intp,
                )
                grown[:self._direct.size] = self._direct
                self._direct = grown
            self._direct[keys] = slots

    def _unindex(self, keys: np.ndarray) -> None:
        """Forget the held ``keys``."""
        direct = (keys >= 0) & (keys < DIRECT_SPAN)
        self._direct[keys[direct]] = -1
        if not direct.all():
            at = self._sparse_keys.searchsorted(keys[~direct])
            self._sparse_keys = np.delete(self._sparse_keys, at)
            self._sparse_slots = np.delete(self._sparse_slots, at)

    def _resize(self, capacity: int) -> None:
        """Move the entries to slots ``0..n-1``, in slot order, of
        columns and a slab ``capacity`` slots long, and index them
        afresh."""
        live = self.slots
        for name in ("key", "tick"):
            column = getattr(self, name)
            moved = np.empty(capacity, dtype=column.dtype)
            moved[:live.size] = column[live]
            setattr(self, name, moved)
        self._free = np.arange(capacity - 1, -1, -1)    # top: live.size
        self._nfree = capacity - live.size
        self._clear_index()
        self._index(self.key[:live.size], np.arange(live.size))
        if self.width:
            self._relocate(capacity, self.width, live)

    def _relocate(self, capacity: int, width: int, live=()) -> None:
        """Move the slab to a new ``(capacity, width)`` block with the
        rows at slots ``live`` first."""
        slab = np.empty((capacity, width), dtype=self._dtype)
        if len(live):
            self.slab.take(live, axis=0, out=slab[:len(live)], mode="clip")
        self.slab = slab

    def put(self, keys: np.ndarray, rows: np.ndarray, stamps) -> None:
        """Make the distinct, not-held ``keys`` resident with ``rows``
        — one copy into the slab — stamped ``stamps``.  A table
        holding no row takes on the width of ``rows``."""
        if rows.shape[1] != self.width:
            self._relocate(self.tick.size, rows.shape[1])
        if keys.size > self._nfree:     # renumbers: before the write
            self._resize(max(
                self.rows + keys.size,
                int(self.tick.size * _SLAB_GROWTH),
            ))
        self._nfree -= keys.size
        slots = self._free[self._nfree:self._nfree + keys.size][::-1]
        self.key[slots] = keys
        self._index(keys, slots)
        self.slab[slots] = rows
        self.touch(slots, stamps)
        self.rows += keys.size

    def touch(self, slots: np.ndarray, stamps) -> None:
        """Stamp ``slots`` with ``stamps``, in order (a repeated slot
        keeps its last stamp, as a repeated ``move_to_end`` would)."""
        self.tick[slots] = stamps

    def drop(self, slots: np.ndarray) -> None:
        """Take the rows out of the (distinct, held) ``slots`` — which
        may renumber every slot left."""
        if slots.size:
            self._unindex(self.key[slots])
            self._free[self._nfree:self._nfree + slots.size] = slots
            self._nfree += slots.size
            self.rows -= slots.size
            if self.rows * 3 < self.tick.size:
                self._resize(int(self.rows * _SLAB_GROWTH))

    def coldest(self, count: int) -> np.ndarray:
        """Up to ``count`` held slots, least recent first."""
        if count <= 0 or not self.rows:
            return np.empty(0, dtype=np.intp)
        slots = self.slots
        ticks = self.tick[slots]
        if count < slots.size:
            nearest = np.argpartition(ticks, count - 1)[:count]
            slots, ticks = slots[nearest], ticks[nearest]
        return slots[np.argsort(ticks)]

    def resident_keys(self) -> np.ndarray:
        """Every key held, least recent first."""
        slots = self.slots
        return self.key[slots[np.argsort(self.tick[slots])]]


class PartialCache:
    """Map of ``rid -> partial row`` under one lock.

    Every computed row is admitted; only the owning store's governor
    evicts (module docstring).  ``clock`` is the :class:`AccessClock`
    shared with sibling caches (a private one when not given): every
    row a batch touches is stamped afresh from it so a
    :class:`~repro.fx.store.PartialStore` governor can compare recency
    across caches and evict the globally coldest entries first.  All
    lookups go through :meth:`get_many`, which resolves hits, computes
    every miss in one vectorized call, and returns rows aligned with
    the requested keys.  The rows of one cache share one width.
    ``spill_dir`` (a path, or a callable asked at each heap creation)
    is where the ``"spill"`` tier's slab writes; the owning store
    names it and deletes it wholesale.
    """

    def __init__(
        self,
        *,
        clock: AccessClock | None = None,
        tiers: tuple = (),
        spill_dir=None,
    ) -> None:
        self._clock = clock or AccessClock()
        self._table = SlotTable()   # the resident tier
        # The demotion ladder (repro.fx.tiers).  Budget eviction walks
        # a victim down these rungs instead of dropping it; an empty
        # tuple keeps the pre-tier drop-on-evict behavior, bit for bit.
        self._tiers = tuple(tiers)
        self._spill = None
        if TIER_SPILL in self._tiers:
            if spill_dir is None:
                raise ModelError(
                    "the 'spill' tier needs a spill_dir to write to"
                )
            self._spill = SpillSlab(spill_dir)
        # The demoted populations — rows of the table's one width: the
        # float32 payloads, each keeping the stamp it had while resident
        # (the governor ranks them against residents), and the rows'
        # positions in the spill slab's heap file, each stamped as it
        # landed (nothing ranks them; the stamps keep demotion order).
        self._compressed = SlotTable(dtype=np.float32)
        self._spilled = SlotTable(dtype=np.int64)
        self._populations = (
            (TIER_RESIDENT, self._table),
            (TIER_FLOAT32, self._compressed),
            (TIER_SPILL, self._spilled),
        )
        # The cache's one lock.  Serializes lookups against
        # invalidations and governor evictions: dimension-update events
        # arrive on the updater's thread, and sweeps on whichever
        # thread broke the budget, while a service thread may be
        # mid-get_many; get_many holds it across compute → insert so
        # neither can land between the two (module docstring).
        self._lock = threading.RLock()
        # Rows ever made resident here, computed or promoted: never
        # zeroed, so a change across a call says that call added charge
        # (what tells a ShardedPartialCache to run the governor).
        self._admissions = 0
        self._zero_counters()

    def _zero_counters(self) -> None:
        self.hits = 0
        self.misses = 0
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
        return self._table.rows

    def __contains__(self, key: int) -> bool:
        return self.tier_of(key) is not None

    def tier_of(self, key: int) -> str | None:
        """The tier holding ``key`` — ``"resident"``, ``"float32"``,
        ``"spill"`` — or ``None``."""
        key = np.array([int(key)])
        with self._lock:
            return next(
                (
                    tier for tier, population in self._populations
                    if population.find(key)[1][0]
                ),
                None,
            )

    def keys(self, tier: str | None = None) -> list[int]:
        """The RIDs held in ``tier`` (in any, for ``None``): resident
        ones least recent first, demoted ones oldest demotion first."""
        with self._lock:
            return [
                key
                for name, population in self._populations
                if tier in (None, name)
                for key in population.resident_keys().tolist()
            ]

    def residency(self) -> Residency:
        """This cache's :class:`Residency`, read lock-free off the tier
        tables."""
        return Residency(
            self.floats_resident,
            self._compressed_floats(),
            self._spilled.rows * self._table.width * _FLOAT_BYTES,
            self.demotions_total,
            self.promotions_total,
        )

    def _compressed_floats(self) -> int:
        compressed = self._compressed
        return compressed.rows * float_equivalents(
            TIER_FLOAT32, compressed.width
        )

    @property
    def floats_resident(self) -> int:
        """Budget floats currently charged: resident float64 values
        plus the float-equivalents of compressed payloads (spilled
        rows charge disk, not memory) — the governor's check, read
        without building a whole :class:`Residency`."""
        table = self._table
        return table.rows * table.width + self._compressed_floats()

    @property
    def bytes_resident(self) -> int:
        """Resident cache payload in bytes (8 per budget float)."""
        return self.floats_resident * _FLOAT_BYTES

    # -- the tier ladder ----------------------------------------------------

    def _next_rung(self, tier: str, width: int) -> tuple[str, int]:
        """Where one demotion takes a ``width``-float row held at
        ``tier``, and the budget floats that frees: the first
        configured tier below whose charge is *strictly* smaller — a
        demotion that frees nothing (a 1-float row "compressed" to
        float32 still charges one float) would stall the governor's
        deficit loop — else ``"drop"`` and the whole charge."""
        current = float_equivalents(tier, width)
        below = self._tiers
        if tier != TIER_RESIDENT:
            below = below[below.index(tier) + 1:]
        for target in below:
            gain = current - float_equivalents(target, width)
            if gain > 0:
                return target, gain
        return "drop", current

    def _take_compressed(self, keys: np.ndarray):
        """Take the float32 copies held of the distinct ``keys`` out of
        their tier: ``(which keys, their float64 rows)``."""
        tier = self._compressed
        slots, held = tier.find(keys)
        slots = slots[held]
        rows = decompress(TIER_FLOAT32, tier.slab.take(slots, axis=0))
        tier.drop(slots)
        return held, rows

    def _take_spilled(self, keys: np.ndarray, read: bool):
        """Take the spilled copies held of the distinct ``keys`` out of
        their tier, recycling their heap positions: ``(which keys,
        their rows)`` — one page-batched
        :meth:`~repro.fx.tiers.SpillSlab.read_rows`, the sequential
        read that makes a spilled partial cheaper than a gather+rebuild
        — or ``None`` for the rows when not asked to ``read`` them."""
        tier = self._spilled
        slots, held = tier.find(keys)
        slots = slots[held]
        rows = None
        if slots.size:
            width = self._table.width
            positions = tier.slab[slots, 0]
            if read:
                rows = self._spill.read_rows(width, positions)
            self._spill.free(width, positions)
            tier.drop(slots)
        return held, rows

    def _demote(self, keys: np.ndarray) -> tuple[int, int]:
        """Walk the distinct ``keys`` one step down the ladder
        each (:meth:`_next_rung`), a block per rung, demotion order =
        the order given; returns ``(rows moved, budget floats freed)``.
        Spilled rows are terminal: they charge no memory, so only
        invalidation removes them."""
        table = self._table
        compressed, rows = self._take_compressed(keys)
        freed = self._settle(TIER_FLOAT32, keys[compressed], rows, None)
        slots, held = table.find(keys)
        slots = slots[held]
        freed += self._settle(
            TIER_RESIDENT, keys[held],
            table.slab.take(slots, axis=0), table.tick[slots],
        )
        table.drop(slots)
        return rows.shape[0] + slots.size, freed

    def _settle(self, tier, keys, rows: np.ndarray, ticks) -> int:
        """Park the rows that just left ``tier`` on the next rung down
        (or nowhere: ``"drop"``) — one ``astype``, or one block write
        to the spill slab; returns the budget floats that freed.  A
        compressed row keeps its resident stamp from ``ticks``; a
        spilled one is stamped as it lands, in the order given."""
        if not keys.size:
            return 0
        target, gain = self._next_rung(tier, rows.shape[1])
        if target == TIER_SPILL:
            self._spilled.put(
                keys, self._spill.put(rows)[:, None],
                self._clock.stamps(keys.size),
            )
        elif target != "drop":
            self._compressed.put(keys, compress(target, rows), ticks)
        self.demotions[target] = self.demotions.get(target, 0) + keys.size
        self.demotions_total += keys.size
        return keys.size * gain

    def _promote(self, wanted: np.ndarray, stamps: np.ndarray) -> None:
        """Bring the demoted copies of the distinct ``wanted`` keys back
        to resident float64 — the float32 ones first, each tier's in
        the order given, stamped ``stamps`` in that order.  Making room
        for them is the store governor's job, after the batch.
        """
        span = current_span()
        with (
            span.child("store.promote") if span is not None
            else nullcontext()
        ) as promote_span:
            found, rows = self._take_compressed(wanted)
            first = rows.shape[0]
            self._readmit(TIER_FLOAT32, wanted[found], rows, stamps[:first])
            found, rows = self._take_spilled(wanted, read=True)
            self._readmit(TIER_SPILL, wanted[found], rows, stamps[first:])
            if promote_span is not None:
                promote_span.set("rows", float(wanted.size))

    def _readmit(self, tier: str, keys: np.ndarray, rows, stamps) -> None:
        """Make the ``rows`` just taken out of ``tier`` resident."""
        if keys.size:
            self._table.put(keys, rows, stamps)
            self._admissions += keys.size
            self.promotions[tier] = self.promotions.get(tier, 0) + keys.size
            self.promotions_total += keys.size

    def _insert(self, keys: np.ndarray, rows: np.ndarray, stamps) -> None:
        """Make freshly computed ``rows`` (distinct ``keys``, in
        first-occurrence order) resident, all of them in one block:
        a cache admits everything and only the store's governor
        evicts."""
        table = self._table
        width = rows.shape[1]
        if width != table.width and (
            table.rows or self._compressed.rows or self._spilled.rows
        ):
            raise ModelError(
                f"partial rows are {width} floats wide but this cache "
                f"holds rows of {table.width}"
            )
        table.put(keys, rows, stamps)
        self._admissions += keys.size

    def get_many(
        self,
        keys: np.ndarray,
        compute: Callable[[np.ndarray], np.ndarray],
        inverse: np.ndarray | None = None,
    ) -> np.ndarray:
        """Rows for ``keys``, computing the misses in one batch.

        ``keys`` are RIDs in any order, repeats allowed: every
        occurrence gets the same row and counts as its own hit or
        miss, a repeated missing key is computed and inserted once.
        ``compute`` receives the distinct missing keys as an int64
        array, in first-occurrence order, and must return one row per
        key, in order; the cache copies them and keeps no reference to
        the array (a batch that hit and repeated nothing gets an array
        nobody else holds back as is, not a third copy of the block).
        Computed rows are returned to the caller even when the store's
        governor evicts them right after (a request wider than the
        budget still gets correct results — only reuse across requests
        is lost).

        ``inverse`` — positions in ``keys``, a dedup plan's — asks for
        the rows in that order instead, ``rows[inverse]``: a full hit
        is then one ``take`` of the slab, straight into request order.
        Hits and misses are still counted once per entry of ``keys``.
        """
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise ModelError(f"keys must be 1-D, got shape {keys.shape}")
        keys = keys.astype(np.int64, copy=False)
        with self._lock:
            table = self._table
            slots, held = table.find(keys)
            wanted = keys[:0]       # demoted rows to promote
            if (
                self._compressed.rows or self._spilled.rows
            ) and not held.all():
                wanted, _ = _first_occurrences(keys[~held])
                wanted = wanted[
                    self._compressed.find(wanted)[1]
                    | self._spilled.find(wanted)[1]
                ]
            # One hold of the store's clock: a fresh stamp for every row
            # this call touches, in touch order — promotions, hits,
            # inserts — which is what keeps the stamps of charged rows
            # pairwise distinct across the whole store.
            stamps = self._clock.stamps(wanted.size + keys.size)
            if wanted.size:
                self._promote(wanted, stamps[:wanted.size])
                slots, held = table.find(keys)
                stamps = stamps[wanted.size:]
            hits = int(np.count_nonzero(held))
            misses = keys.size - hits
            if misses:
                missing, where = _first_occurrences(keys[~held])
                computed = np.asarray(compute(missing), dtype=np.float64)
                if computed.ndim != 2 or computed.shape[0] != missing.size:
                    raise ModelError(
                        f"compute returned {computed.shape[0]} rows for "
                        f"{missing.size} missing keys"
                    )
            self.hits += hits
            self.misses += misses
            # Attribute this call's outcome to the in-flight request's
            # span (thread-local read; None when tracing is off).
            span = current_span()
            if span is not None:
                span.add("cache.hits", hits)
                span.add("cache.misses", misses)
            if hits:
                touched = slots[held] if misses else slots
                table.touch(touched, stamps[:touched.size])
            if not misses:
                if inverse is not None:
                    slots = slots.take(inverse)
                return table.slab.take(slots, axis=0)
            if hits:
                out = table.slab.take(slots, axis=0)
            elif where is None and (
                computed.flags.owndata and sys.getrefcount(computed) <= 2
            ):
                out = computed      # its only holder: no third copy
            else:
                out = np.empty((keys.size, computed.shape[1]))
            self._insert(missing, computed, stamps[-missing.size:])
            if out is not computed:
                out[~held] = computed if where is None else computed[where]
            return out if inverse is None else out.take(inverse, axis=0)

    # -- store-wide budget hooks (see the module docstring) ----------------

    def eviction_candidates(self, deficit_floats: int):
        """This cache's coldest charged rows, just enough to
        cover ``deficit_floats`` alone (the worst case: every victim
        lives here), as parallel arrays ``(keys, ticks, frees)`` for
        the store's governor to pool and rank by stamp.

        ``frees`` is what :meth:`evict` would free per row: its charge,
        or with tiers one rung's gain.  Compressed rows still charge
        the budget, so they are offered too: each keeps the stamp it
        had while resident, older than any resident's here, so they are
        this cache's coldest.  Spilled rows charge nothing — never
        offered.
        """
        with self._lock:
            table, compressed = self._table, self._compressed
            width = table.width
            demoted = np.empty(0, dtype=np.intp)
            if compressed.rows:
                charge = float_equivalents(TIER_FLOAT32, width)
                demoted = compressed.coldest(-(-deficit_floats // charge))
                deficit_floats -= demoted.size * charge
            wanted = 0
            if deficit_floats > 0 and width:
                wanted = -(-deficit_floats // width)
            slots = table.coldest(wanted)
            keys = np.concatenate([compressed.key[demoted], table.key[slots]])
            ticks = np.concatenate(
                [compressed.tick[demoted], table.tick[slots]]
            )
            frees = np.full(
                keys.size, self._next_rung(TIER_RESIDENT, width)[1]
            )
            if demoted.size:
                frees[:demoted.size] = self._next_rung(TIER_FLOAT32, width)[1]
            return keys, ticks, frees

    def evict(self, keys: np.ndarray) -> tuple[int, int]:
        """Cross-cache-evict those of ``keys`` that are still charged,
        under one hold of the lock; returns ``(rows evicted, budget
        floats freed)``.

        Fewer than asked go when a key was invalidated or evicted
        between the governor's scan and this call — the governor then
        simply rescans.  With tiers configured each row is demoted one
        rung instead of dropped, a block per rung (:meth:`_demote`).
        """
        with self._lock:
            table = self._table
            if self._tiers:
                count, total = self._demote(keys)
            else:
                slots, held = table.find(keys)
                count = int(np.count_nonzero(held))
                total = count * table.width
                table.drop(slots[held])
            self.cross_evictions += count
            # The governor runs on the thread of the batch whose insert
            # broke the budget, so the cross-evictions land on that
            # batch's span — the attribution that matters.
            span = current_span()
            if span is not None and count:
                span.add("cache.cross_evictions", count)
            return count, total

    def invalidate(self, keys: np.ndarray) -> int:
        """Drop the given RIDs if cached; returns how many were held.

        Used by the dimension-update eviction path: unlike the
        governor's evictions, invalidations are counted separately
        because they signal data change, not memory pressure.  A stale
        partial must never outlive its updated source row — whatever
        tier it sits in, spilled copies included.
        """
        keys = as_rids(keys)
        with self._lock:
            slots, held = self._table.find(keys)
            slots = distinct_values(slots[held])
            self._table.drop(slots)
            dropped = slots.size
            if self._compressed.rows or self._spilled.rows:
                demoted = distinct_values(keys[~held])
                dropped += np.count_nonzero(
                    self._take_compressed(demoted)[0]
                    | self._take_spilled(demoted, read=False)[0]
                )
            self.invalidations += dropped
        return dropped

    def stats(self) -> CacheStats:
        with self._lock:
            held = self.residency()
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                entries=self._table.rows,
                bytes_resident=held.bytes,
                invalidations=self.invalidations,
                cross_evictions=self.cross_evictions,
                compressed_entries=self._compressed.rows,
                spilled_entries=self._spilled.rows,
                compressed_floats_resident=held.compressed_floats,
                compressed_bytes_resident=held.compressed_bytes,
                spilled_bytes=held.spilled_bytes,
                demotions=dict(self.demotions),
                promotions=dict(self.promotions),
            )

    def approx_hit_rate(self) -> float:
        """Lock-free hit-rate estimate for the batch planner's hot path.

        Reads the counters without taking the lock — a torn read skews
        an estimate that only discounts a cost model, never
        correctness, and skipping the lock keeps per-batch planning
        from contending with concurrent ``get_many`` calls.
        """
        hits = self.hits
        lookups = hits + self.misses
        return hits / lookups if lookups else 0.0

    def drop_spilled(self) -> None:
        """Forget every spilled entry *without* per-row frees and delete
        the spill files wholesale (the owning store's teardown path)."""
        with self._lock:
            self._spilled.clear()
            if self._spill is not None:
                self._spill.reset()

    def clear(self) -> None:
        """Drop all entries and zero the counters."""
        with self._lock:
            # Recycle the spilled positions while the table still
            # knows the width of the rows they hold.
            self._take_spilled(self._spilled.keys, read=False)
            self._table.clear()
            self._compressed.clear()
            self._zero_counters()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"PartialCache(entries={stats.entries}, "
            f"hit_rate={stats.hit_rate:.2f})"
        )
