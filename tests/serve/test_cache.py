"""Partial-cache behaviour: hit/miss accounting, and eviction by the
store budget's governor."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ModelError
from repro.fx.store import PartialStore
from repro.serve.cache import PartialCache, SlotTable


def rows_for(keys):
    """Deterministic fake partial rows: row value == key."""
    keys = np.asarray(keys, dtype=np.float64)
    return np.column_stack([keys, keys * 10.0])


class TestGetMany:
    def test_cold_lookup_computes_everything(self):
        cache = PartialCache()
        calls = []

        def compute(keys):
            calls.append(keys.copy())
            return rows_for(keys)

        out = cache.get_many(np.array([3, 1, 7]), compute)
        np.testing.assert_array_equal(out, rows_for([3, 1, 7]))
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], [3, 1, 7])
        assert cache.hits == 0 and cache.misses == 3

    def test_the_cache_keeps_a_copy_of_what_compute_returned(self):
        cache = PartialCache()
        buffer = np.empty((3, 2))

        def compute(keys):      # hands out a buffer it goes on to reuse
            buffer[:] = rows_for(keys)
            return buffer

        cold = cache.get_many(np.array([1, 2, 3]), compute)
        buffer[:] = -1.0
        np.testing.assert_array_equal(cold, rows_for([1, 2, 3]))
        np.testing.assert_array_equal(
            cache.get_many(np.array([1, 2, 3]), None), rows_for([1, 2, 3])
        )

    def test_a_cold_batch_holds_two_copies_of_the_block_not_three(self):
        # What compute made and the slab's copy: the result is the
        # former, handed on, when nobody else can reach it.  A third
        # copy of a warm-up's block is 23.7 MiB on the e2e benchmark,
        # and whether it fitted a freed hole or grew the heap made the
        # peak RSS there differ by that much from seed to seed.
        cache = PartialCache()
        keys = np.arange(4000)

        def compute(keys):
            block = np.empty((keys.size, 64))
            block[:] = keys[:, None]
            return block

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = cache.get_many(keys, compute)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out, compute(keys))
        assert peak < 2.5 * out.nbytes
        out[:] = -1.0           # the caller's to scribble on
        np.testing.assert_array_equal(
            cache.get_many(keys, None), compute(keys)
        )

    def test_warm_lookup_never_recomputes(self):
        cache = PartialCache()
        cache.get_many(np.array([1, 2, 3]), rows_for)

        def explode(keys):  # pragma: no cover - must not be called
            raise AssertionError("warm lookup recomputed")

        out = cache.get_many(np.array([2, 3]), explode)
        np.testing.assert_array_equal(out, rows_for([2, 3]))
        assert cache.hits == 2 and cache.misses == 3

    def test_partial_hit_computes_only_misses(self):
        cache = PartialCache()
        cache.get_many(np.array([1, 2]), rows_for)
        seen = []

        def compute(keys):
            seen.extend(keys.tolist())
            return rows_for(keys)

        out = cache.get_many(np.array([2, 5, 1]), compute)
        np.testing.assert_array_equal(out, rows_for([2, 5, 1]))
        assert seen == [5]
        assert cache.hits == 2 and cache.misses == 3

    def test_rows_align_with_requested_key_order(self):
        cache = PartialCache()
        cache.get_many(np.array([9]), rows_for)
        out = cache.get_many(np.array([4, 9, 2]), rows_for)
        np.testing.assert_array_equal(out, rows_for([4, 9, 2]))


def budgeted(floats):
    """A cache under a store budget of ``floats`` — the only
    bound a cache has: the store's governor evicts after each batch,
    down to 0.9 of the budget (5 floats keep two 2-float rows)."""
    return PartialStore(capacity_floats=floats).acquire("fp")


class TestEviction:
    def test_the_store_budget_bounds_the_cache(self):
        cache = budgeted(5)                       # rows are 2 floats wide
        cache.get_many(np.array([1, 2, 3]), rows_for)
        assert len(cache) == 2
        assert cache.stats().cross_evictions == 1

    def test_lru_order_evicts_coldest(self):
        cache = budgeted(5)
        cache.get_many(np.array([1]), rows_for)
        cache.get_many(np.array([2]), rows_for)
        cache.get_many(np.array([1]), rows_for)   # touch 1 → 2 is coldest
        cache.get_many(np.array([3]), rows_for)   # evicts 2
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_request_wider_than_capacity_still_correct(self):
        cache = budgeted(5)
        out = cache.get_many(np.array([1, 2, 3, 4, 5]), rows_for)
        np.testing.assert_array_equal(out, rows_for([1, 2, 3, 4, 5]))
        assert len(cache) == 2
        assert cache.stats().cross_evictions == 3

    def test_unbounded_cache_never_evicts(self):
        cache = PartialStore().acquire("fp")
        cache.get_many(np.arange(100), rows_for)
        assert len(cache) == 100
        assert cache.stats().cross_evictions == 0


class TestSizeAwareCapacity:
    def test_capacity_floats_bounds_resident_floats(self):
        cache = budgeted(5)
        cache.get_many(np.array([1, 2, 3]), rows_for)
        assert cache.floats_resident <= 5
        assert len(cache) == 2
        assert cache.stats().cross_evictions == 1

    def test_single_row_wider_than_float_capacity_still_served(self):
        cache = budgeted(1)
        out = cache.get_many(np.array([1]), rows_for)
        np.testing.assert_array_equal(out, rows_for([1]))
        assert len(cache) == 0     # evicted at once, result intact

    def test_bytes_resident_tracks_insertions_and_evictions(self):
        cache = budgeted(5)
        cache.get_many(np.array([1, 2]), rows_for)
        assert cache.bytes_resident == 2 * 2 * 8
        assert cache.stats().bytes_resident == 32
        cache.get_many(np.array([3]), rows_for)   # evicts one row
        assert cache.bytes_resident == 32
        cache.clear()
        assert cache.bytes_resident == 0

    def test_invalidate_releases_bytes(self):
        cache = PartialCache()
        cache.get_many(np.array([1, 2]), rows_for)
        assert cache.invalidate(np.array([1, 99])) == 1
        assert cache.bytes_resident == 16
        assert cache.stats().invalidations == 1
        assert 1 not in cache and 2 in cache

    @pytest.mark.parametrize("capacity_floats", [0, -2])
    def test_nonpositive_float_capacity_rejected(self, capacity_floats):
        with pytest.raises(ModelError, match="capacity_floats"):
            PartialStore(capacity_floats=capacity_floats)


class TestStats:
    def test_stats_snapshot(self):
        cache = budgeted(5)
        cache.get_many(np.array([1, 2, 3]), rows_for)
        cache.get_many(np.array([3]), rows_for)
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 3
        assert stats.cross_evictions == 1
        assert stats.evictions == 0        # kept for its readers, never moves
        assert stats.entries == 2
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.25)

    def test_empty_cache_hit_rate_is_zero(self):
        assert PartialCache().stats().hit_rate == 0.0

    def test_clear_resets_counters_and_entries(self):
        cache = PartialCache()
        cache.get_many(np.array([1, 2]), rows_for)
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.cross_evictions) == (0, 0, 0)


class TestValidation:
    @pytest.mark.parametrize("capacity", [0, -1])
    def test_nonpositive_capacity_rejected(self, capacity):
        # The one bound left is the store's; re-bounding it mid-flight
        # validates like the constructor and leaves the old bound.
        store = PartialStore(capacity_floats=4)
        with pytest.raises(ModelError, match="capacity"):
            store.set_budget(capacity)
        assert store.capacity_floats == 4

    def test_keys_must_be_1d(self):
        with pytest.raises(ModelError, match="1-D"):
            PartialCache().get_many(np.zeros((2, 2)), rows_for)

    def test_compute_row_count_mismatch_rejected(self):
        with pytest.raises(ModelError, match="rows"):
            PartialCache().get_many(
                np.array([1, 2]), lambda keys: rows_for(keys[:1])
            )

    def test_a_raising_compute_caches_and_counts_nothing(self):
        cache = PartialCache()
        cache.get_many(np.array([1]), rows_for)

        def failing(keys):
            raise RuntimeError("compute failed")

        with pytest.raises(RuntimeError, match="compute failed"):
            cache.get_many(np.array([1, 2]), failing)
        assert cache.keys() == [1] and 2 not in cache
        assert (cache.hits, cache.misses) == (0, 1)
        # The lock was released: the next batch goes through.
        np.testing.assert_array_equal(
            cache.get_many(np.array([2, 1]), rows_for), rows_for([2, 1])
        )


class TestRepeatedAndUnsortedKeys:
    """``get_many`` takes RIDs in any order, repeats allowed: a
    repeated missing key is computed and inserted once, every
    occurrence gets the same row, hits and misses are counted per
    requested key, and ``compute`` sees first-occurrence order."""

    @staticmethod
    def recording(calls):
        def compute(keys):
            calls.append(keys.tolist())
            return rows_for(keys)
        return compute

    def test_repeats_among_hits(self):
        cache = PartialCache()
        cache.get_many(np.array([1, 2, 3]), rows_for)
        calls = []
        keys = np.array([3, 1, 3, 3, 1])
        out = cache.get_many(keys, self.recording(calls))
        np.testing.assert_array_equal(out, rows_for(keys))
        assert calls == []
        assert (cache.hits, cache.misses) == (5, 3)
        assert cache.keys() == [2, 3, 1]     # last touch decides recency

    def test_repeats_among_misses(self):
        cache = PartialCache()
        calls = []
        keys = np.array([7, 4, 7, 9, 4, 7])
        out = cache.get_many(keys, self.recording(calls))
        np.testing.assert_array_equal(out, rows_for(keys))
        assert calls == [[7, 4, 9]]          # once each, first-occurrence order
        assert (cache.hits, cache.misses) == (0, 6)
        assert len(cache) == 3 and cache.bytes_resident == 3 * 2 * 8
        # One copy of the repeated key: invalidating it leaves nothing.
        assert cache.invalidate(np.array([7, 7])) == 1
        assert 7 not in cache
        calls.clear()
        cache.get_many(np.array([7]), self.recording(calls))
        assert calls == [[7]]

    def test_repeats_mixed_across_hits_and_misses(self):
        cache = budgeted(7)                 # the 0.9 cut: three rows
        cache.get_many(np.array([1, 2]), rows_for)
        calls = []
        keys = np.array([5, 2, 5, 1, 8, 2, 8])
        out = cache.get_many(keys, self.recording(calls))
        np.testing.assert_array_equal(out, rows_for(keys))
        assert calls == [[5, 8]]
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (3, 2 + 4)
        # Hits were touched before the fresh rows landed: 1 is oldest.
        assert cache.keys() == [2, 5, 8]
        assert stats.cross_evictions == 1

    def test_repeated_keys_charge_the_budget_once(self):
        cache = budgeted(5)
        keys = np.array([1, 1, 2, 1, 2])
        np.testing.assert_array_equal(
            cache.get_many(keys, rows_for), rows_for(keys)
        )
        assert len(cache) == 2 and cache.floats_resident == 4
        assert cache.stats().cross_evictions == 0
        cache.get_many(np.array([3, 3, 3]), rows_for)
        assert cache.keys() == [2, 3]                # 1 was coldest
        assert cache.stats().cross_evictions == 1

    def test_reverse_sorted_keys(self):
        cache = PartialCache()
        calls = []
        keys = np.arange(40)[::-1]
        np.testing.assert_array_equal(
            cache.get_many(keys, self.recording(calls)), rows_for(keys)
        )
        assert calls == [keys.tolist()]
        np.testing.assert_array_equal(
            cache.get_many(keys[::3], self.recording(calls)),
            rows_for(keys[::3]),
        )
        assert len(calls) == 1

    def test_width_is_fixed_while_rows_are_resident(self):
        cache = PartialCache()
        cache.get_many(np.array([1]), rows_for)
        with pytest.raises(ModelError, match="wide"):
            cache.get_many(np.array([2]), lambda keys: np.ones((keys.size, 5)))


def wide_rows(keys, width=64):
    """Rows wide enough that a slab dwarfs the interpreter's own noise."""
    return np.repeat(np.asarray(keys, dtype=np.float64), width).reshape(-1, width)


class TestSlabTracksLiveRows:
    """Evicted memory is really freed and really reused: the slab
    stops growing once the cache is full, shrinks when its rows go,
    and what the governor budgets with is the memory held."""

    SLACK = 16 * 1024   # interpreter noise, index arrays, columns

    def test_churn_reuses_slots_instead_of_growing_the_slab(self, traced):
        bound, batch, width = 64, 16, 64
        # The budget whose 0.9 cut is exactly ``bound`` rows.
        cache = budgeted(bound * width * 10 // 9 + 1)
        held = []
        for start in range(0, 10 * bound, batch):
            keys = np.arange(start, start + batch)
            np.testing.assert_array_equal(
                cache.get_many(keys, wide_rows), wide_rows(keys)
            )
            assert cache.bytes_resident == len(cache) * width * 8
            held.append(traced())
        assert len(cache) == bound
        assert cache.stats().cross_evictions == 10 * bound - bound
        # The slab needs the bound plus one batch in flight; it stops
        # growing (geometrically, hence the 1.5) once that much has passed.
        settled = held[bound // batch + 1:]
        assert max(held) <= 1.5 * (bound + batch) * width * 8 + self.SLACK
        assert max(settled) - min(settled) <= self.SLACK
        # The survivors are the most recent rows, bit for bit.
        last = np.arange(9 * bound, 10 * bound)
        np.testing.assert_array_equal(
            cache.get_many(last, None), wide_rows(last)
        )

    def test_invalidated_slots_are_reused_too(self, traced):
        cache = PartialCache()
        cache.get_many(np.arange(32), wide_rows)
        before = traced()
        for round_ in range(5):
            doomed = np.arange(round_, 32, 4)
            assert cache.invalidate(doomed) == doomed.size
            cache.get_many(doomed, wide_rows)
        assert traced() <= before + self.SLACK
        assert cache.bytes_resident == 32 * 64 * 8

    def test_a_batch_far_past_the_bound_does_not_leave_its_slab_behind(
        self, traced
    ):
        cache = budgeted(5 * 64)            # the 0.9 cut: four rows
        cache.get_many(np.arange(1000), wide_rows)
        assert len(cache) == 4
        assert traced() <= 3 * cache.bytes_resident + self.SLACK
        np.testing.assert_array_equal(
            cache.get_many(np.arange(996, 1000), None),
            wide_rows(np.arange(996, 1000)),
        )

    def test_invalidating_everything_gives_the_slab_back(self, traced):
        cache = PartialCache()
        cache.get_many(np.arange(2000), wide_rows)
        assert traced() >= 2000 * 64 * 8
        assert cache.invalidate(np.arange(2000)) == 2000
        assert traced() <= self.SLACK
        # ... and what survives a partial purge is intact, renumbered.
        cache.get_many(np.arange(2000), wide_rows)
        cache.invalidate(np.arange(1900))
        assert traced() <= 3 * cache.bytes_resident + self.SLACK
        np.testing.assert_array_equal(
            cache.get_many(np.arange(1900, 2000)[::-1], None),
            wide_rows(np.arange(1900, 2000)[::-1]),
        )


class TestSlotTable:
    """The slab under every cache tier: freed slots are reused before
    it grows, a full slab grows by relocating, a mostly empty one
    shrinks, and the rows survive each move."""

    @staticmethod
    def filled(keys, width=3, stamps=None):
        table = SlotTable()
        keys = np.asarray(keys, dtype=np.int64)
        stamps = np.arange(keys.size) if stamps is None else stamps
        table.put(keys, wide_rows(keys, width), np.asarray(stamps))
        return table

    @staticmethod
    def held(table, keys):
        slots, found = table.find(np.asarray(keys, dtype=np.int64))
        assert found.all()
        return table.slab[slots]

    def test_a_table_takes_on_the_width_of_its_first_rows(self):
        table = SlotTable()
        assert table.rows == 0 and table.width == 0
        table = self.filled([7, 3], width=5)
        assert table.rows == 2 and table.width == 5
        np.testing.assert_array_equal(table.keys, [3, 7])

    def test_put_copies_rows_into_the_slab(self):
        table = SlotTable()
        keys = np.array([4, 2])
        rows = wide_rows(keys, 3)
        table.put(keys, rows, np.array([0, 1]))
        rows[:] = -1.0                  # the caller's array, not the slab
        np.testing.assert_array_equal(
            self.held(table, [2, 4]), wide_rows([2, 4], 3)
        )
        _, found = table.find(np.array([1, 2, 3]))
        np.testing.assert_array_equal(found, [False, True, False])

    def test_freed_slots_are_reused_before_the_slab_grows(self):
        table = self.filled([0, 1, 2, 3])
        slab = table.slab
        freed, _ = table.find(np.array([1]))
        table.drop(freed)
        table.put(np.array([9]), wide_rows([9], 3), np.array([4]))
        assert table.slab is slab       # no relocation
        np.testing.assert_array_equal(table.find(np.array([9]))[0], freed)
        np.testing.assert_array_equal(
            self.held(table, [0, 2, 3, 9]), wide_rows([0, 2, 3, 9], 3)
        )

    def test_a_full_slab_grows_and_keeps_its_rows(self):
        table = self.filled([0, 1, 2, 3])
        assert table.slab.shape == (4, 3)
        table.put(np.array([8]), wide_rows([8], 3), np.array([4]))
        assert table.slab.shape == (6, 3)       # x1.5
        np.testing.assert_array_equal(
            self.held(table, [0, 1, 2, 3, 8]), wide_rows([0, 1, 2, 3, 8], 3)
        )

    def test_a_slab_under_a_third_full_shrinks(self):
        table = self.filled(np.arange(9))
        slots, _ = table.find(np.arange(7))
        table.drop(slots)
        assert table.rows == 2
        assert table.slab.shape == (3, 3)
        np.testing.assert_array_equal(
            self.held(table, [7, 8]), wide_rows([7, 8], 3)
        )

    def test_coldest_is_least_recent_first(self):
        table = self.filled([10, 20, 30], stamps=[5, 1, 3])
        assert table.key[table.coldest(2)].tolist() == [20, 30]
        assert table.resident_keys().tolist() == [20, 30, 10]
        table.touch(table.find(np.array([20]))[0], np.array([9]))
        assert table.resident_keys().tolist() == [30, 10, 20]
        assert table.coldest(0).size == 0
