"""ShardedPartialCache, one lock per cache: order, concurrency,
invalidation, stats, the governor call after each batch that adds
charge, and a budget sweep racing a batch in flight."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.fx.sharding import ShardedPartialCache
from repro.fx.store import PartialStore


def rows_for(keys):
    keys = np.asarray(keys, dtype=np.float64)
    return np.column_stack([keys, keys * 10.0])


class TestOrder:
    def test_results_align_with_requested_order(self):
        cache = PartialStore().acquire("fp")
        keys = np.array([7, 2, 9, 2, 0, 11])
        np.testing.assert_array_equal(
            cache.get_many(keys, rows_for), rows_for(keys)
        )
        # warm pass, shuffled order
        np.testing.assert_array_equal(
            cache.get_many(keys[::-1], rows_for), rows_for(keys[::-1])
        )

    def test_empty_keys(self):
        assert PartialStore().acquire("fp").get_many(
            np.zeros(0, dtype=np.int64), rows_for
        ).shape == (0, 0)


class TestInvalidation:
    def test_invalidate_evicts_exactly_the_given_rids(self):
        cache = PartialStore().acquire("fp")
        cache.get_many(np.arange(12), rows_for)
        dropped = cache.invalidate(np.array([3, 7]))
        assert dropped == 2
        assert len(cache) == 10
        assert 3 not in cache and 7 not in cache
        assert all(
            k in cache for k in range(12) if k not in (3, 7)
        )

    def test_invalidate_counts_only_the_rids_it_held(self):
        cache = PartialStore().acquire("fp")
        cache.get_many(np.arange(12), rows_for)
        # 99 is nowhere.
        assert cache.invalidate(np.array([3, 7, 4, 99])) == 3
        assert cache.stats().invalidations == 3
        # Any array-like, any shape.
        assert cache.invalidate([[1], [2]]) == 2
        assert cache.invalidate(np.zeros(0, dtype=np.int64)) == 0

    def test_invalidate_missing_rids_is_a_noop(self):
        cache = PartialStore().acquire("fp")
        cache.get_many(np.array([1]), rows_for)
        assert cache.invalidate(np.array([99])) == 0
        assert len(cache) == 1

    def test_invalidation_counted_separately_from_evictions(self):
        cache = PartialStore().acquire("fp")
        cache.get_many(np.array([1, 2]), rows_for)
        cache.invalidate(np.array([1]))
        stats = cache.stats()
        assert stats.invalidations == 1
        assert stats.cross_evictions == 0


class TestStats:
    def test_stats_and_hit_rate(self):
        cache = PartialStore().acquire("fp")
        cache.get_many(np.arange(6), rows_for)
        cache.get_many(np.arange(6), rows_for)   # warm
        total = cache.stats()
        assert total.misses == 6 and total.hits == 6
        assert total.entries == 6
        assert total.bytes_resident == 6 * 2 * 8
        assert total.hit_rate == pytest.approx(0.5)
        assert cache.approx_hit_rate() == pytest.approx(0.5)

    def test_clear(self):
        cache = PartialStore().acquire("fp")
        cache.get_many(np.arange(4), rows_for)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().misses == 0


class TestGovernor:
    def test_the_governor_runs_once_after_each_batch_that_adds_charge(
        self, monkeypatch
    ):
        """Exactly one budget check after a batch that inserted computed
        rows or promoted demoted ones — also when its compute raises
        after the promotion — and none after a batch that changed no
        residency: a full hit, an empty batch, a raising compute that
        promoted nothing."""
        store = PartialStore(capacity_floats=4, tiers=("spill",))
        cache = store.acquire("fp")
        calls = []
        enforce = store.enforce_budget

        def counting():
            calls.append(1)
            return enforce()

        monkeypatch.setattr(store, "enforce_budget", counting)

        def failing(keys):
            raise RuntimeError("compute failed")

        def checks(keys, compute=rows_for):
            """Budget checks the batch ran."""
            before = len(calls)
            try:
                cache.get_many(np.asarray(keys, dtype=np.int64), compute)
            except RuntimeError:
                pass
            return len(calls) - before

        assert checks([0, 1, 2]) == 1                  # misses
        assert cache.keys("spill") == [0, 1]
        assert checks([2, 2]) == 0                     # a full hit
        assert checks([]) == 0                         # an empty batch
        assert checks([0]) == 1                        # a promotion
        assert checks([1, 99], failing) == 1           # promoted, then raised
        assert cache.promotions == {"spill": 2}
        assert checks([99], failing) == 0              # raised, added nothing
        assert checks([1, 7]) == 1                     # a promotion and a miss
        assert checks([7]) == 0
        assert store.floats_resident <= 4
        store.close()

    def test_a_raising_compute_still_runs_the_governor(self):
        """The batch promotes spilled rows before its compute raises;
        the sweep in ``get_many``'s ``finally`` must still bring the
        store back within its budget, demoting (not dropping) them."""
        store = PartialStore(capacity_floats=4, tiers=("spill",))
        cache = store.acquire("fp")
        cache.get_many(np.arange(3), rows_for)          # 0, 1 spill
        assert cache.keys("spill") == [0, 1]
        sweeps = store.governor_sweeps

        def failing(keys):
            raise RuntimeError("compute failed")

        with pytest.raises(RuntimeError, match="compute failed"):
            cache.get_many(np.array([0, 1, 99]), failing)
        assert cache.promotions == {"spill": 2}
        assert store.governor_sweeps == sweeps + 1
        assert store.floats_resident <= 4
        assert 99 not in cache
        # Nothing was lost: every row comes back, bit for bit, unasked.
        np.testing.assert_array_equal(
            cache.get_many(np.arange(3), None), rows_for(np.arange(3))
        )
        store.close()


class TestConcurrency:
    def test_parallel_get_many_is_exact_and_loses_no_counts(self):
        cache = PartialStore().acquire("fp")
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
        cache = PartialStore().acquire("fp")
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
        """The cache's one lock is held across miss compute → insert,
        so an invalidation lands wholly before the insert (the compute
        then reads the updated source) or wholly after it (the stale
        row is dropped).  With no second lock around the cache, that
        is the whole argument — a stale row surviving here means it
        broke."""
        source = np.zeros(24)               # the "dimension relation"
        cache = PartialStore().acquire("fp")
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

    def test_a_budget_sweep_waits_for_the_batch_in_flight(self):
        """No batch pins its rows: a sweep reaches a cache only through
        its lock, which ``get_many`` holds from lookup to the copy of
        its rows.  A budget cut arriving mid-batch must wait for it,
        the batch must get exactly its rows back, and the sweep must
        then reach the budget."""
        store = PartialStore(
            capacity_floats=1 << 20, tiers=("float32", "spill")
        )
        cache = store.acquire("fp")
        cache.get_many(np.arange(10), rows_for)
        entered, release = threading.Event(), threading.Event()

        def blocking(keys):
            entered.set()
            assert release.wait(30)
            return rows_for(keys)

        keys = np.array([12, 3, 11, 0, 10, 7])
        out = []
        batch = threading.Thread(
            target=lambda: out.append(cache.get_many(keys, blocking))
        )
        evicted = []
        cut = threading.Thread(
            target=lambda: evicted.append(store.set_budget(1))
        )
        batch.start()
        try:
            assert entered.wait(30)
            before = store.floats_resident
            cut.start()
            cut.join(0.2)
            # Tripped, and stuck on the cache's lock: nothing moved.
            assert cut.is_alive()
            assert store.governor_sweeps == 1
            assert store.floats_resident == before
        finally:
            release.set()
            batch.join(30)
            cut.join(30)
        assert not batch.is_alive() and not cut.is_alive()
        np.testing.assert_array_equal(out[0], rows_for(keys))
        assert evicted[0] > 0
        assert store.floats_resident <= 1
        # Every row is still reachable down the ladder, bit for bit.
        every = np.arange(13)
        np.testing.assert_array_equal(
            cache.get_many(every, rows_for)[:, 0], every
        )
        store.close()
