"""PartialStore: fingerprint-keyed cache sharing and lifecycle."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.fx.store import PartialStore


def rows_for(keys):
    keys = np.asarray(keys, dtype=np.int64)
    return keys[:, None].astype(np.float64)


class TestAcquireRelease:
    def test_same_fingerprint_shares_one_cache(self):
        store = PartialStore()
        a = store.acquire("fp-1")
        b = store.acquire("fp-1")
        assert a is b
        assert len(store) == 1
        stats = store.stats()
        assert stats.attachments == 2
        assert stats.shared_attachments == 1

    def test_different_fingerprints_never_collide(self):
        store = PartialStore()
        a = store.acquire("fp-1")
        b = store.acquire("fp-2")
        assert a is not b
        assert len(store) == 2
        assert store.stats().shared_attachments == 0

    def test_cache_survives_until_last_release(self):
        store = PartialStore()
        a = store.acquire("fp-1")
        store.acquire("fp-1")
        a.get_many(np.array([1, 2]), rows_for)
        store.release(a)
        assert len(store) == 1          # one holder left
        assert store.bytes_resident > 0
        store.release(a)
        assert len(store) == 0
        assert store.bytes_resident == 0

    def test_release_of_foreign_cache_rejected(self):
        store = PartialStore()
        other = PartialStore().acquire("fp-1")
        with pytest.raises(ModelError, match="store"):
            store.release(other)

    def test_double_full_release_rejected(self):
        store = PartialStore()
        cache = store.acquire("fp-1")
        store.release(cache)
        with pytest.raises(ModelError):
            store.release(cache)

    def test_reacquire_after_drop_starts_cold(self):
        store = PartialStore()
        cache = store.acquire("fp-1")
        cache.get_many(np.array([1]), rows_for)
        store.release(cache)
        fresh = store.acquire("fp-1")
        assert len(fresh) == 0


class TestConfiguration:
    def test_every_acquirer_attaches_under_the_store_budget(self):
        # An acquirer states no bound of its own, so no two acquirers
        # can disagree: each attaches, and the store's budget holds.
        store = PartialStore(capacity_floats=2)
        a = store.acquire("fp-1")
        assert store.acquire("fp-1") is a
        a.get_many(np.array([1, 2, 3]), rows_for)
        assert len(a) == 2

    def test_admission_applies_to_created_caches(self):
        store = PartialStore(admission="tinylfu")
        cache = store.acquire("fp-1")
        assert cache.admission == "tinylfu"

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ModelError, match="admission"):
            PartialStore(admission="clock")


class TestStats:
    def test_aggregates_across_caches(self):
        store = PartialStore()
        a = store.acquire("fp-1")
        b = store.acquire("fp-2")
        a.get_many(np.array([1, 2]), rows_for)
        b.get_many(np.array([1]), rows_for)
        stats = store.stats()
        assert stats.caches == 2
        assert stats.cache.misses == 3
        assert stats.bytes_resident == 3 * 8

    def test_unbounded_aggregate_capacity_is_none(self):
        # Stats add field by field (the process executor merges its
        # workers' stores): one unbounded side makes the sum unbounded.
        bounded = PartialStore(capacity_floats=4).stats()
        assert (bounded + PartialStore().stats()).capacity_floats is None
        assert (bounded + bounded).capacity_floats == 8

    def test_clear_drops_rows_but_keeps_handles(self):
        store = PartialStore()
        cache = store.acquire("fp-1")
        cache.get_many(np.array([1, 2]), rows_for)
        store.clear()
        assert store.bytes_resident == 0
        assert len(store) == 1
        cache.get_many(np.array([1]), rows_for)     # handle still live
