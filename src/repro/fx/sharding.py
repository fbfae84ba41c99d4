"""The partial cache a consumer holds: one lock-guarded cache per
fingerprint, plus the call into the store's governor.

A :class:`~repro.fx.store.PartialStore` hands out one
:class:`ShardedPartialCache` per partial fingerprint, shared by every
model with that fingerprint; a predictor built without a store draws
from a private store of its own.  It *is* a
:class:`~repro.serve.cache.PartialCache` — one lock held across
lookup → miss compute → insert, which is what makes invalidation
race-free and keeps a governor sweep out of a batch in flight (the
argument lives with the lock, in :mod:`repro.serve.cache`) — and adds
one thing: a :meth:`get_many` whose locked call added charge — inserted
computed rows or promoted demoted ones — calls the ``governor``'s
``enforce_budget()`` once, after the lock is released.  A full hit or
an empty batch changes no residency, so it skips the budget check (a
sum over every cache's charge), and a budget set afresh enforces
itself (:meth:`~repro.fx.store.PartialStore.set_budget`).
The lock order is always governor → one cache at a time, never a cache
held while asking for the governor, which is what keeps cross-cache
eviction deadlock-free.

The name is historical: the cache once split into RID-hash shards; it
is kept because benchmark tooling looks the class up by name.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.serve.cache import PartialCache


class ShardedPartialCache(PartialCache):
    """A :class:`~repro.serve.cache.PartialCache` that runs the owning
    store's governor after every batch that added charge.

    ``governor`` is the owning :class:`~repro.fx.store.PartialStore`;
    every other argument is the cache's.
    """

    def __init__(self, *, governor, **cache) -> None:
        super().__init__(**cache)
        self._governor = governor

    def get_many(
        self,
        keys: np.ndarray,
        compute: Callable[[np.ndarray], np.ndarray],
        inverse: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`PartialCache.get_many`, then — if it inserted or
        promoted rows — one budget sweep with no cache lock held, even
        when ``compute`` raises, since the batch may already have
        promoted demoted rows."""
        admitted = self._admissions
        try:
            return super().get_many(keys, compute, inverse)
        finally:
            if self._admissions != admitted:
                self._governor.enforce_budget()
