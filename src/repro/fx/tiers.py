"""Partial-row storage tiers between "resident float64" and "recompute".

PR 5's governor answers memory pressure with a cliff: a cold partial is
*dropped*, and the next request pays a full gather+rebuild — the exact
redundant computation the paper's factorized construction exists to
avoid.  This module defines the intermediate rungs the cliff becomes:

========  ======================================  =======================
tier      representation                          exactness contract
========  ======================================  =======================
resident  float64 rows (possibly in shm slabs)    bit-exact
float32   ``row.astype(float32)``                 GMM labels bit-exact;
                                                  scores within
                                                  ``FLOAT32_SCORE_RTOL``
spill     float64 row in an on-disk heap file     bit-exact (one page
                                                  read to re-promote)
========  ======================================  =======================

A demotion must *free* budget floats or it is pointless: every tier
maps a row width to its residual charge against the store budget
(:func:`float_equivalents`), and the cache only demotes to a tier with
strictly positive gain.  The spill tier charges nothing against the
memory budget — its cost is the page read on re-promotion, tracked by
the :class:`SpillSlab`'s private :class:`~repro.storage.iostats.IOStats`.
Both rungs move rows in blocks: a demotion is one ``astype`` or one
heap write per governor sweep, never one per row.
"""

from __future__ import annotations

import secrets
import threading
from pathlib import Path

import numpy as np

from repro.errors import ModelError, StorageError

TIER_RESIDENT = "resident"
TIER_FLOAT32 = "float32"
TIER_SPILL = "spill"

#: The demotion ladder, hottest representation first.  ``store_tiers=``
#: accepts any subset; rows walk whatever rungs are configured and fall
#: off the end (plain drop) when no rung yields a gain.
STORE_TIERS = (TIER_FLOAT32, TIER_SPILL)

#: Documented bound for the float32 tier: scores and NN outputs computed
#: from a float32 round-tripped partial match the float64 answer to this
#: relative tolerance (float32 has ~7.2 significant digits; the slack
#: absorbs accumulation over a partial's width).
FLOAT32_SCORE_RTOL = 1e-5

#: Once the governor trips, it trims down to ``capacity * hysteresis``
#: instead of exactly to capacity, so steady-state overshoot of one
#: batch's inserts doesn't re-trip it every batch.  The bare
#: :class:`~repro.fx.store.PartialStore` default stays 1.0 (trim exactly
#: to budget — the behavior PR 5's tests pin); the serving layers pass
#: this explicitly.
GOVERNOR_HYSTERESIS = 0.9

_NO_POSITIONS = np.empty(0, dtype=np.int64)


def validate_tiers(tiers) -> tuple:
    """Normalize a ``store_tiers=`` value to a canonical-order tuple.

    Accepts any iterable of tier names; returns them deduplicated in
    ladder order (:data:`STORE_TIERS`), so callers may list tiers in
    any order.  Unknown names raise :class:`~repro.errors.ModelError`.
    """
    if tiers is None:
        return ()
    if isinstance(tiers, str):
        tiers = (tiers,)
    requested = []
    for tier in tiers:
        if tier not in STORE_TIERS:
            raise ModelError(
                f"unknown store tier {tier!r}; valid tiers are "
                f"{', '.join(STORE_TIERS)}"
            )
        if tier not in requested:
            requested.append(tier)
    return tuple(t for t in STORE_TIERS if t in requested)


def float_equivalents(tier: str, width: int) -> int:
    """Budget floats a ``width``-float row still charges at ``tier``.

    The governor's unit of account is the float64; a compressed row
    charges the float64s its payload would occupy.  ``spill`` charges
    nothing — its residual cost is I/O, not memory.
    """
    if tier == TIER_RESIDENT:
        return width
    if tier == TIER_FLOAT32:
        return (width + 1) // 2
    if tier == TIER_SPILL:
        return 0
    raise ModelError(f"unknown store tier {tier!r}")


def compress(tier: str, rows: np.ndarray) -> np.ndarray:
    """Encode float64 rows (one, or a block) for a compressed tier."""
    if tier == TIER_FLOAT32:
        return rows.astype(np.float32)
    raise ModelError(f"tier {tier!r} has no compressed encoding")


def decompress(tier: str, payload: np.ndarray) -> np.ndarray:
    """Decode a :func:`compress` payload back to float64."""
    if tier == TIER_FLOAT32:
        return payload.astype(np.float64)
    raise ModelError(f"tier {tier!r} has no compressed encoding")


class SpillSlab:
    """On-disk spill area for demoted partial rows.

    One heap file per row width (partials of different models/ops have
    different widths; a heap file is fixed-width), created on first use
    in the directory the owning :class:`~repro.fx.store.PartialStore`
    names *at that moment* — ``directory`` is a path or a callable
    returning one — so a slab that outlives a
    :meth:`~repro.fx.store.PartialStore.release_spill` spills into the
    store's next directory, never back into the deleted one.  Rows move
    in blocks: :meth:`put` is one ``update_rows`` over the recycled
    positions plus one ``append`` for the rest, whatever the block's
    size.  Freed positions are recycled via a per-width free stack, so
    a steady-state demote/promote cycle doesn't grow the files without
    bound.  Each :class:`~repro.serve.cache.PartialCache` owns one
    slab; its lock is thread-safe on its own as well.
    """

    def __init__(self, directory) -> None:
        self._directory = (
            directory if callable(directory) else lambda: Path(directory)
        )
        self._tag = secrets.token_hex(4)
        self._lock = threading.Lock()
        self._heaps: dict[int, object] = {}
        self._free: dict[int, np.ndarray] = {}
        # Private accounting: spill I/O must not pollute the database's
        # relation-level IOStats the paper's cost formulas read.
        from repro.storage.iostats import IOStats

        self.io = IOStats()

    def _heap_locked(self, width: int):
        heap = self._heaps.get(width)
        if heap is None:
            from repro.storage.heapfile import HeapFile

            heap = HeapFile.create(
                self._directory() / f"spill-{self._tag}-w{width}.heap",
                width,
                stats=self.io,
                stats_name="spill",
            )
            self._heaps[width] = heap
            self._free[width] = _NO_POSITIONS
        return heap

    def put(self, rows: np.ndarray) -> np.ndarray:
        """Write a block of rows (a 1-D array is one row); returns each
        row's heap position, stable until :meth:`free`."""
        rows = np.atleast_2d(np.ascontiguousarray(rows, dtype=np.float64))
        count, width = rows.shape
        with self._lock:
            heap = self._heap_locked(width)
            free = self._free[width]
            kept = free.size - min(free.size, count)
            recycled, self._free[width] = free[kept:], free[:kept]
            heap.update_rows(recycled, rows[:recycled.size])
            fresh = np.arange(heap.nrows, heap.nrows + count - recycled.size)
            heap.append(rows[recycled.size:])
        return np.concatenate([recycled, fresh])

    def read_rows(self, width: int, positions) -> np.ndarray:
        """Fetch rows of one width by position (page-batched)."""
        with self._lock:
            heap = self._heaps.get(width)
        if heap is None:
            raise StorageError(f"no spill heap for width {width}")
        return heap.read_rows(np.asarray(positions, dtype=np.int64))

    def free(self, width: int, positions) -> None:
        """Recycle spilled rows' positions (on promotion or
        invalidation)."""
        with self._lock:
            self._free[width] = np.concatenate(
                [self._free.get(width, _NO_POSITIONS), np.ravel(positions)]
            )

    def reset(self) -> None:
        """Delete every spill file and forget all positions."""
        with self._lock:
            for heap in self._heaps.values():
                heap.delete()
            self._heaps.clear()
            self._free.clear()
