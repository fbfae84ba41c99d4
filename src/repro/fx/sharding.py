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
one thing: under a store-wide budget, each :meth:`get_many` calls the
``governor``'s ``enforce_budget()`` once, after the lock is released.
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
    store's governor after every batch.

    ``governor`` is set by the owning :class:`~repro.fx.store.PartialStore`
    when it is armed (a store-wide ``capacity_floats`` budget, or a
    process worker's); every other argument is the cache's.
    """

    def __init__(self, *, governor=None, **cache) -> None:
        super().__init__(**cache)
        self._governor = governor

    def get_many(
        self,
        keys: np.ndarray,
        compute: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """:meth:`PartialCache.get_many`, then one budget sweep with no
        cache lock held — even when ``compute`` raises, since the batch
        may already have promoted demoted rows."""
        try:
            return super().get_many(keys, compute)
        finally:
            if self._governor is not None:
                self._governor.enforce_budget()
