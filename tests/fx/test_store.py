"""PartialStore: fingerprint-keyed cache sharing and lifecycle, the
trims a process worker's store takes, and the trim planner the process
executor's governor runs."""

import gc
import weakref

import numpy as np
import pytest

from repro.errors import ModelError
from repro.fx.store import PartialStore, plan_trims

SLACK = 16 * 1024   # interpreter noise, index arrays, columns


def rows_for(keys):
    keys = np.asarray(keys, dtype=np.int64)
    return keys[:, None].astype(np.float64)


def rows_of_width(width):
    def loader(keys):
        keys = np.asarray(keys, dtype=np.int64)
        return np.repeat(
            keys[:, None].astype(np.float64), width, axis=1
        )
    return loader


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
        store = PartialStore(capacity_floats=3)
        a = store.acquire("fp-1")
        assert store.acquire("fp-1") is a
        a.get_many(np.array([1, 2, 3, 4]), rows_for)
        assert len(a) == 2                  # the 0.9 watermark of 3


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


class TestPlanTrims:
    def test_no_deficit_means_no_trims(self):
        assert plan_trims([100, 200], budget=400) == [0, 0]
        assert plan_trims([], budget=0) == []

    def test_deficit_taken_from_the_largest_resident_first(self):
        assert plan_trims([100, 500, 200], budget=600) == [0, 200, 0]

    def test_trims_cap_at_each_workers_own_residency(self):
        # Deficit 700 exceeds what the largest alone can cover.
        assert plan_trims([100, 500, 200], budget=100) == [0, 500, 200]

    def test_total_never_exceeds_the_deficit(self):
        trims = plan_trims([300, 300, 300], budget=650)
        assert sum(trims) == 250


class TestWorkerPartialStore:
    def test_rows_are_placed_in_the_slab(self, traced):
        store = PartialStore()
        cache = store.acquire("fp")
        cache.get_many(np.array([1, 2, 3]), rows_of_width(4))
        assert store.floats_resident == 3 * 4
        assert store.stats().bytes_resident == 3 * 4 * 8
        assert traced() >= 3 * 4 * 8        # private numpy memory
        np.testing.assert_array_equal(
            cache.get_many(np.array([3, 1]), None), rows_of_width(4)([3, 1])
        )
        store.close()

    def test_armed_store_trims_without_a_local_capacity(self):
        store = PartialStore()
        cache = store.acquire("fp")
        cache.get_many(np.arange(10), rows_of_width(4))
        evicted = store.trim(12)            # 12 floats = 3 width-4 rows
        assert evicted == 3
        assert store.floats_resident == 10 * 4 - 12
        assert cache.keys() == list(range(3, 10))
        store.close()

    def test_a_trimmed_slab_gives_its_block_back(self, traced):
        width = 64                          # rows that dwarf the noise
        store = PartialStore()
        first = store.acquire("fp-1")
        first.get_many(np.arange(100), rows_of_width(width))
        assert traced() >= 100 * width * 8
        assert store.trim(90 * width) == 90
        # The slab moved to a block sized for the ten rows left.
        assert traced() <= 3 * 10 * width * 8 + SLACK
        assert store.stats().bytes_resident == 10 * width * 8
        np.testing.assert_array_equal(
            first.get_many(np.arange(90, 100), None),
            rows_of_width(width)(np.arange(90, 100)),
        )
        store.close()

    def test_close_releases_every_buffer_view(self, traced):
        # A store and its caches form a governor reference cycle;
        # close() must give the slabs back at once and break the cycle,
        # so the store goes with its last reference, not at some later
        # collection.
        store = PartialStore()
        cache = store.acquire("fp")
        cache.get_many(np.arange(100), rows_of_width(64))
        store.close()
        assert cache.bytes_resident == 0
        assert traced() <= SLACK            # while both are still held
        gone = weakref.ref(store)
        gc.disable()
        try:
            store = cache = None
            assert gone() is None
        finally:
            gc.enable()

    def test_trim_on_a_store_that_never_had_a_budget_takes_the_coldest(self):
        store = PartialStore()
        a = store.acquire("fp-a")
        b = store.acquire("fp-b")
        a.get_many(np.arange(4), rows_of_width(2))       # tick 1
        b.get_many(np.arange(4), rows_of_width(2))       # tick 2
        a.get_many(np.array([3]), rows_of_width(2))      # tick 3: a hit
        assert store.capacity_floats is None
        assert store.trim(10) == 5                  # 10 floats = 5 rows
        assert a.keys() == [3]
        assert b.keys() == [2, 3]
        assert store.floats_resident == 3 * 2
        store.close()
