"""A count-min frequency sketch with aging, for the TinyLFU policy.

Zipf-skewed FK traffic (the common case for the synthetic stars and
most real fact tables) makes plain LRU keep every cold RID that
passes by, evicting hot partials to hold one-hit wonders.  TinyLFU
(Einziger et al.) fixes this with a tiny approximate frequency table;
here the store's governor ranks a sweep's candidate victims by it,
least frequent first, so the one-hit wonders go before the hot rows.

The sketch is the standard count-min structure — ``depth`` hash rows
over a power-of-two ``width`` — with periodic halving ("aging") so the
frequency estimates track the recent workload instead of all history.
Increments and estimates are vectorized over key arrays; the structure
is a few KiB regardless of key universe.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError

# Distinct odd 64-bit mixing constants (splitmix64 / xxhash lineage) —
# one per sketch row so the rows hash independently.
_ROW_SEEDS = np.array(
    [
        0x9E3779B97F4A7C15,
        0xC2B2AE3D27D4EB4F,
        0x165667B19E3779F9,
        0x27D4EB2F165667C5,
    ],
    dtype=np.uint64,
)
_MIX_SHIFT = np.uint64(33)
_MIX_MULT = np.uint64(0xFF51AFD7ED558CCD)


class FrequencySketch:
    """Approximate per-key access counts in ``depth × width`` counters.

    ``width`` is rounded up to a power of two (minimum 64).  After
    ``sample_factor × width`` recorded accesses every counter is halved,
    so estimates decay toward the recent access distribution — the
    "reset" half of TinyLFU.
    """

    def __init__(
        self, width: int = 1024, *, depth: int = 4, sample_factor: int = 16
    ) -> None:
        if width <= 0:
            raise ModelError(f"sketch width must be positive, got {width}")
        if not 1 <= depth <= _ROW_SEEDS.size:
            raise ModelError(
                f"sketch depth must be in [1, {_ROW_SEEDS.size}], "
                f"got {depth}"
            )
        self.width = max(64, 1 << (int(width) - 1).bit_length())
        self.depth = depth
        self._mask = np.uint64(self.width - 1)
        self._table = np.zeros((depth, self.width), dtype=np.uint32)
        self._increments = 0
        self._sample = sample_factor * self.width

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        """Counter columns per row for each key: shape ``(depth, n)``."""
        keys = np.atleast_1d(np.asarray(keys)).astype(np.uint64)
        mixed = keys[None, :] * _ROW_SEEDS[: self.depth, None]
        mixed ^= mixed >> _MIX_SHIFT
        mixed *= _MIX_MULT
        mixed ^= mixed >> _MIX_SHIFT
        return (mixed & self._mask).astype(np.int64)

    def record(self, keys: np.ndarray) -> None:
        """Count one access for every key in ``keys`` (duplicates count)."""
        keys = np.atleast_1d(np.asarray(keys))
        if keys.size == 0:
            return
        slots = self._slots(keys)
        for row in range(self.depth):
            np.add.at(self._table[row], slots[row], 1)
        self._increments += keys.size
        if self._increments >= self._sample:
            self._age()

    def _age(self) -> None:
        """Halve every counter — frequency decay toward the recent past."""
        self._table >>= 1
        self._increments //= 2

    def estimate(self, key: int) -> int:
        """Approximate access count (an upper bound, per count-min)."""
        slots = self._slots(np.array([key]))[:, 0]
        return int(self._table[np.arange(self.depth), slots].min())

    def estimate_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`estimate` for an array of keys."""
        keys = np.atleast_1d(np.asarray(keys))
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        slots = self._slots(keys)
        rows = np.arange(self.depth)[:, None]
        return self._table[rows, slots].min(axis=0).astype(np.int64)

    def clear(self) -> None:
        self._table[:] = 0
        self._increments = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrequencySketch(width={self.width}, depth={self.depth}, "
            f"increments={self._increments})"
        )
