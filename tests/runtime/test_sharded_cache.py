"""ShardedPartialCache: placement, concurrency, invalidation, stats."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import ModelError
from repro.fx.sharding import ShardedPartialCache
from repro.fx.store import PartialStore


def rows_for(keys):
    keys = np.asarray(keys, dtype=np.float64)
    return np.column_stack([keys, keys * 10.0])


class TestPlacement:
    def test_rid_hash_routes_to_one_shard(self):
        cache = ShardedPartialCache(4)
        cache.get_many(np.arange(8), rows_for)
        for key in range(8):
            shard = cache.shard_of(key)
            assert key in cache.shards[shard]
            for other, shard_cache in enumerate(cache.shards):
                if other != shard:
                    assert key not in shard_cache

    def test_results_align_with_requested_order(self):
        cache = ShardedPartialCache(3)
        keys = np.array([7, 2, 9, 2, 0, 11])
        np.testing.assert_array_equal(
            cache.get_many(keys, rows_for), rows_for(keys)
        )
        # warm pass, shuffled order
        np.testing.assert_array_equal(
            cache.get_many(keys[::-1], rows_for), rows_for(keys[::-1])
        )

    def test_empty_keys(self):
        assert ShardedPartialCache(2).get_many(
            np.zeros(0, dtype=np.int64), rows_for
        ).shape == (0, 0)

    def test_the_store_budget_is_one_pool_across_shards(self):
        # No per-shard slice of the budget: the shard the traffic
        # favours may hold all of it while its sibling holds nothing.
        cache = PartialStore(capacity_floats=8, num_shards=2).acquire("fp")
        cache.get_many(np.array([0, 2, 4, 6]), rows_for)   # all shard 0
        assert [len(shard) for shard in cache.shards] == [4, 0]
        assert cache.stats().cross_evictions == 0
        cache.get_many(np.array([8]), rows_for)
        assert cache.floats_resident == 8
        assert cache.stats().cross_evictions == 1

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ModelError, match="num_shards"):
            ShardedPartialCache(0)


class TestInvalidation:
    def test_invalidate_evicts_exactly_the_given_rids(self):
        cache = ShardedPartialCache(4)
        cache.get_many(np.arange(12), rows_for)
        dropped = cache.invalidate(np.array([3, 7]))
        assert dropped == 2
        assert len(cache) == 10
        assert 3 not in cache and 7 not in cache
        assert all(
            k in cache for k in range(12) if k not in (3, 7)
        )

    def test_invalidate_offers_each_rid_to_its_owning_shard_only(self):
        cache = ShardedPartialCache(4)
        cache.get_many(np.arange(12), rows_for)
        # 3 and 7 live in shard 3, 4 in shard 0; 99 is nowhere.
        assert cache.invalidate(np.array([3, 7, 4, 99])) == 3
        assert [s.invalidations for s in cache.shard_stats()] == [
            1, 0, 0, 2,
        ]
        assert cache.stats().invalidations == 3
        # Any array-like, any shape — as the single-shard cache takes.
        assert cache.invalidate([[1], [2]]) == 2
        assert cache.invalidate(np.zeros(0, dtype=np.int64)) == 0

    def test_invalidate_missing_rids_is_a_noop(self):
        cache = ShardedPartialCache(2)
        cache.get_many(np.array([1]), rows_for)
        assert cache.invalidate(np.array([99])) == 0
        assert len(cache) == 1

    def test_invalidation_counted_separately_from_evictions(self):
        cache = ShardedPartialCache(2)
        cache.get_many(np.array([1, 2]), rows_for)
        cache.invalidate(np.array([1]))
        stats = cache.stats()
        assert stats.invalidations == 1
        assert stats.cross_evictions == 0


class TestStats:
    def test_shard_stats_and_aggregate(self):
        cache = ShardedPartialCache(2)
        cache.get_many(np.arange(6), rows_for)
        cache.get_many(np.arange(6), rows_for)   # warm
        per_shard = cache.shard_stats()
        assert len(per_shard) == 2
        total = cache.stats()
        assert total.misses == 6 and total.hits == 6
        assert total.entries == 6
        assert total.bytes_resident == 6 * 2 * 8
        assert cache.hit_rate == pytest.approx(0.5)

    def test_clear(self):
        cache = ShardedPartialCache(2)
        cache.get_many(np.arange(4), rows_for)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().misses == 0


class TestConcurrency:
    def test_parallel_get_many_is_exact_and_loses_no_counts(self):
        cache = ShardedPartialCache(4)
        errors = []

        def hammer(seed):
            rng = np.random.default_rng(seed)
            for _ in range(30):
                keys = rng.integers(0, 40, size=16)
                out = cache.get_many(keys, rows_for)
                if not np.array_equal(out, rows_for(keys)):
                    errors.append(keys)

        threads = [
            threading.Thread(target=hammer, args=(s,)) for s in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats.lookups == 6 * 30 * 16

    def test_invalidate_races_with_lookups(self):
        cache = ShardedPartialCache(4)
        stop = threading.Event()
        errors = []

        def reader():
            rng = np.random.default_rng(0)
            while not stop.is_set():
                keys = rng.integers(0, 20, size=8)
                out = cache.get_many(keys, rows_for)
                if not np.array_equal(out, rows_for(keys)):
                    errors.append(keys)

        def invalidator():
            rng = np.random.default_rng(1)
            for _ in range(200):
                cache.invalidate(rng.integers(0, 20, size=2))
            stop.set()

        threads = [
            threading.Thread(target=reader),
            threading.Thread(target=reader),
            threading.Thread(target=invalidator),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_update_racing_lookups_never_leaves_a_stale_row(self):
        """The shard's one lock is held across miss compute → insert,
        so an invalidation lands wholly before the insert (the compute
        then reads the updated source) or wholly after it (the stale
        row is dropped).  With no second lock around the shard, that
        is the whole argument — a stale row surviving here means it
        broke."""
        source = np.zeros(24)               # the "dimension relation"
        cache = ShardedPartialCache(4)
        stop = threading.Event()

        def compute(keys):
            rows = source[np.asarray(keys)][:, None].copy()
            time.sleep(1e-4)    # widen the read → insert window
            return rows

        def reader(seed):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                cache.get_many(rng.integers(0, source.size, size=8), compute)

        def updater():
            rng = np.random.default_rng(99)
            for version in range(1, 301):
                keys = rng.integers(0, source.size, size=2)
                source[keys] = version          # write first …
                cache.invalidate(keys)          # … then the event fires
            stop.set()

        threads = [
            threading.Thread(target=reader, args=(seed,), daemon=True)
            for seed in range(os.cpu_count() + 2)
        ] + [threading.Thread(target=updater, daemon=True)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        every = np.arange(source.size)
        np.testing.assert_array_equal(
            cache.get_many(every, compute)[:, 0], source
        )
