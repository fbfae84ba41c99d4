"""TinyLFU on PartialCache / ShardedPartialCache: under a store budget
the governor ranks a sweep's victims by sketch frequency."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.fx.sharding import ShardedPartialCache
from repro.fx.store import PartialStore
from repro.serve.cache import _TINYLFU_VICTIM_SAMPLE, PartialCache


def rows_for(keys):
    """Deterministic 1-wide rows so values are checkable."""
    keys = np.asarray(keys, dtype=np.int64)
    return keys[:, None].astype(np.float64) * 10.0


def budgeted(floats, admission="tinylfu"):
    """A cache whose only bound is a store budget of ``floats``."""
    store = PartialStore(capacity_floats=floats, admission=admission)
    return store.acquire("fp")


class TestPolicySelection:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ModelError, match="admission"):
            PartialCache(admission="clock")

    def test_default_is_lru(self):
        assert PartialCache().admission == "lru"

    def test_sharded_cache_passes_the_policy_through(self):
        sharded = ShardedPartialCache(admission="tinylfu")
        assert sharded.admission == "tinylfu"
        assert sharded._sketch is not None


class TestTinyLFUAdmission:
    def test_results_are_correct_even_when_evicted(self):
        cache = budgeted(2)
        out = cache.get_many(np.array([1, 2, 3, 4]), rows_for)
        np.testing.assert_array_equal(out, rows_for([1, 2, 3, 4]))
        assert len(cache) == 2

    def test_one_hit_wonders_do_not_evict_hot_entries(self):
        cache = budgeted(2)
        hot = np.array([1, 2])
        for _ in range(5):
            cache.get_many(hot, rows_for)
        # A parade of cold keys, each seen once: the governor ranks each
        # one below the hot keys, so the newcomer is the victim.
        for cold in range(100, 120):
            cache.get_many(np.array([cold]), rows_for)
        assert 1 in cache
        assert 2 in cache
        assert cache.stats().cross_evictions == 20

    def test_lru_by_contrast_churns(self):
        cache = budgeted(2, admission="lru")
        for _ in range(5):
            cache.get_many(np.array([1, 2]), rows_for)
        for cold in range(100, 120):
            cache.get_many(np.array([cold]), rows_for)
        assert 1 not in cache and 2 not in cache

    def test_frequent_candidate_displaces_infrequent_resident(self):
        cache = budgeted(2)
        cache.get_many(np.array([1, 2]), rows_for)      # residents, once
        # Key 9's frequency grows with each access; it out-ranks the
        # residents seen once and stays.
        for _ in range(4):
            cache.get_many(np.array([9]), rows_for)
        assert 9 in cache

    def test_admission_fills_spare_capacity_unconditionally(self):
        cache = budgeted(4)
        cache.get_many(np.array([1, 2, 3]), rows_for)
        assert len(cache) == 3                # under budget: no sweep
        assert cache.stats().cross_evictions == 0

    def test_clear_resets_the_sketch(self):
        cache = budgeted(1)
        for _ in range(3):
            cache.get_many(np.array([1]), rows_for)
        cache.clear()
        # Post-clear, 1's three old accesses are forgotten: it ties
        # with 2 on one access each, and the older of the two goes.
        cache.get_many(np.array([1]), rows_for)
        cache.get_many(np.array([2]), rows_for)
        assert 2 in cache and 1 not in cache


class TestVictimOffer:
    """What one cache offers a sweep: the coldest rows that cover the
    deficit and, under TinyLFU, ``_TINYLFU_VICTIM_SAMPLE`` more, so the
    frequency rank has a choice however large the sweep."""

    @staticmethod
    def offered(admission, deficit):
        cache = PartialCache(admission=admission)
        cache.get_many(np.arange(40), rows_for)     # 1 float a row
        return cache.eviction_candidates(deficit)[0].tolist()

    @pytest.mark.parametrize("deficit", [1, 8, 20])
    def test_lru_offers_exactly_the_covering_rows(self, deficit):
        assert self.offered("lru", deficit) == list(range(deficit))

    @pytest.mark.parametrize("deficit", [1, 8, 20])
    def test_tinylfu_offers_a_sample_beyond_the_covering_rows(self, deficit):
        assert self.offered("tinylfu", deficit) == list(
            range(deficit + _TINYLFU_VICTIM_SAMPLE)
        )


class TestZipfWorkload:
    def test_tinylfu_beats_lru_hit_rate_on_skewed_traffic(self):
        # A sweep whose deficit is a whole batch of misses is offered
        # more rows than it must evict, or the frequency rank has no
        # choice to make and TinyLFU is plain LRU.
        rng = np.random.default_rng(7)
        universe = 400
        # Zipf-ish skew: a small hot set dominates, a long cold tail.
        raw = rng.zipf(1.3, size=6000) % universe
        lru = budgeted(32, admission="lru")
        tiny = budgeted(32)
        for start in range(0, raw.size, 64):
            batch = np.unique(raw[start:start + 64])
            lru.get_many(batch, rows_for)
            tiny.get_many(batch, rows_for)
        assert tiny.stats().hit_rate > lru.stats().hit_rate + 0.02

    def test_tinylfu_serves_correct_rows(self):
        cache = budgeted(16)
        rng = np.random.default_rng(11)
        for _ in range(30):
            keys = np.unique(rng.integers(0, 200, size=40))
            np.testing.assert_array_equal(
                cache.get_many(keys, rows_for), rows_for(keys)
            )
        assert cache.stats().cross_evictions > 0
        assert cache.floats_resident <= 16
