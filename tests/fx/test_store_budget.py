"""Store-wide memory budget: cross-cache eviction, re-budgeting,
exactness."""

import threading
import warnings

import numpy as np
import pytest

from repro.core.api import fit_nn, serve, serve_runtime
from repro.errors import ModelError
from repro.fx.store import PartialStore
from repro.serve import core
from repro.serve.cache import PartialCache


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def rows_for(keys):
    keys = np.asarray(keys, dtype=np.int64)
    return keys[:, None].astype(np.float64)       # 1 float per row


class TestGlobalBudget:
    def test_invalid_budget_rejected(self):
        with pytest.raises(ModelError, match="capacity_floats"):
            PartialStore(capacity_floats=0)

    def test_budget_spans_fingerprints(self):
        store = PartialStore(capacity_floats=10)
        a = store.acquire("fp-a")
        b = store.acquire("fp-b")
        a.get_many(np.arange(6), rows_for)        # 6 floats resident
        assert store.floats_resident == 6         # under budget, no evict
        b.get_many(np.arange(6), rows_for)        # 12 > 10
        assert store.floats_resident == 9         # the 0.9 watermark
        stats = store.stats()
        assert stats.cross_evictions == 3
        assert stats.capacity_floats == 10

    def test_eviction_order_is_global_lru(self):
        store = PartialStore(capacity_floats=10)
        a = store.acquire("fp-a")
        b = store.acquire("fp-b")
        a.get_many(np.arange(6), rows_for)        # ticks 1..6
        b.get_many(np.arange(6), rows_for)        # 12 > 10: down to 9
        # The three globally coldest rows were cache A's keys 0 to 2;
        # cache B (all newer) kept everything.
        assert all(k not in a for k in range(3))
        assert all(k in a for k in range(3, 6))
        assert all(k in b for k in range(6))

    def test_hot_fingerprint_takes_share_from_cold_one(self):
        store = PartialStore(capacity_floats=10)
        cold = store.acquire("fp-cold")
        hot = store.acquire("fp-hot")
        cold.get_many(np.arange(4), rows_for)
        for _ in range(3):                        # keep hot keys recent
            hot.get_many(np.arange(7), rows_for)
        shares = store.stats().fingerprints
        assert shares["fp-hot"] == 7 * 8          # fully resident
        assert shares["fp-cold"] == 2 * 8         # squeezed to the rest

    def test_lru_rank_evicts_oldest_tick(self):
        store = PartialStore(capacity_floats=1)    # watermark: 1 row
        a = store.acquire("fp-a")
        b = store.acquire("fp-b")
        for _ in range(3):
            a.get_many(np.array([1]), rows_for)
        b.get_many(np.array([2]), rows_for)
        # However often a's key 1 was read, the sweep goes by recency:
        # it was touched last one tick before b's key 2.
        assert 1 not in a
        assert 2 in b

    def test_cross_evictions_visible_per_cache_and_store(self):
        store = PartialStore(capacity_floats=10)
        a = store.acquire("fp-a")
        b = store.acquire("fp-b")
        a.get_many(np.arange(10), rows_for)
        b.get_many(np.arange(9), rows_for)        # 19 > 10: down to 9
        stats = store.stats()
        assert stats.cross_evictions == 10
        assert stats.cache.cross_evictions == 10  # aggregated per cache
        assert a.stats().cross_evictions == 10    # all victims were a's
        assert a.stats().evictions == 0           # the governor's alone
        assert stats.bytes_resident <= 10 * 8

    def test_ungoverned_store_never_cross_evicts(self):
        store = PartialStore()
        a = store.acquire("fp-a")
        a.get_many(np.arange(100), rows_for)
        assert store.enforce_budget() == 0
        assert len(a) == 100
        assert store.stats().cross_evictions == 0

    def test_a_hit_makes_a_row_young_again_across_caches(self):
        store = PartialStore(capacity_floats=10)
        a = store.acquire("fp-a")
        b = store.acquire("fp-b")
        a.get_many(np.arange(6), rows_for)        # tick 1
        b.get_many(np.arange(4), rows_for)        # tick 2: at the budget
        a.get_many(np.array([0, 1]), rows_for)    # tick 3: hits
        b.get_many(np.array([4]), rows_for)       # tick 4: down to 9
        # a's 0 and 1 are younger than anything of b's now; the two
        # victims are the coldest of a's untouched rows.
        assert 0 in a and 1 in a
        assert 2 not in a and 3 not in a
        assert 4 in a and 5 in a
        assert all(k in b for k in range(5))

    def test_invalidation_frees_budget_for_a_sibling_cache(self):
        store = PartialStore(capacity_floats=10)
        a = store.acquire("fp-a")
        b = store.acquire("fp-b")
        a.get_many(np.arange(6), rows_for)
        assert a.invalidate(np.arange(3)) == 3
        assert store.floats_resident == 3
        b.get_many(np.arange(7), rows_for)        # 3 + 7 fits exactly
        assert store.stats().cross_evictions == 0
        assert all(k in a for k in range(3, 6))
        assert all(k in b for k in range(7))


def budgeted(floats):
    """A cache whose only bound is a store budget of ``floats``."""
    store = PartialStore(capacity_floats=floats)
    return store.acquire("fp")


class TestOneBudgetedCache:
    def test_results_are_correct_even_when_evicted(self):
        cache = budgeted(2)
        out = cache.get_many(np.array([1, 2, 3, 4]), rows_for)
        np.testing.assert_array_equal(out, rows_for([1, 2, 3, 4]))
        assert len(cache) == 1                # the 0.9 watermark of 2

    def test_lru_by_contrast_churns(self):
        cache = budgeted(2)
        for _ in range(5):
            cache.get_many(np.array([1, 2]), rows_for)
        for cold in range(100, 120):
            cache.get_many(np.array([cold]), rows_for)
        assert 1 not in cache and 2 not in cache

    def test_admission_fills_spare_capacity_unconditionally(self):
        cache = budgeted(4)
        cache.get_many(np.array([1, 2, 3]), rows_for)
        assert len(cache) == 3                # under budget: no sweep
        assert cache.stats().cross_evictions == 0

    def test_a_hit_outlives_an_older_untouched_row(self):
        cache = budgeted(3)
        cache.get_many(np.array([1, 2, 3]), rows_for)
        cache.get_many(np.array([1]), rows_for)   # 1 is young again
        cache.get_many(np.array([4]), rows_for)   # down to 2: 2, 3 go
        assert 1 in cache and 4 in cache
        assert 2 not in cache and 3 not in cache

    def test_one_batch_is_swept_in_the_order_it_was_inserted(self):
        cache = budgeted(3)                       # watermark: 2 rows
        # Every row of the batch carries the same tick; the stable
        # rank falls back on insertion order, first come first out.
        cache.get_many(np.array([5, 3, 9, 1]), rows_for)
        assert cache.keys() == [9, 1]

    def test_clear_frees_the_budget_and_forgets_recency(self):
        cache = budgeted(1)
        for _ in range(3):
            cache.get_many(np.array([1]), rows_for)
        cache.clear()
        assert cache.floats_resident == 0
        cache.get_many(np.array([1]), rows_for)
        cache.get_many(np.array([2]), rows_for)
        assert 2 in cache and 1 not in cache
        assert cache.floats_resident == 1

    def test_exact_rows_and_bounded_residency_under_random_traffic(self):
        cache = budgeted(16)
        rng = np.random.default_rng(11)
        for _ in range(30):
            keys = np.unique(rng.integers(0, 200, size=40))
            np.testing.assert_array_equal(
                cache.get_many(keys, rows_for), rows_for(keys)
            )
        assert cache.stats().cross_evictions > 0
        assert cache.floats_resident <= 16

    def test_the_latest_batch_stays_whole_under_skewed_traffic(self):
        rng = np.random.default_rng(7)
        raw = rng.zipf(1.3, size=6000) % 400
        cache = budgeted(64)
        for start in range(0, raw.size, 64):
            batch = np.unique(raw[start:start + 64])
            cache.get_many(batch, rows_for)
            # No batch outgrows the budget, so every victim is older
            # than the batch that forced the sweep.
            assert all(int(key) in cache for key in batch)
            assert cache.floats_resident <= 64
        assert cache.stats().cross_evictions > 0
        assert cache.stats().hit_rate > 0


class TestVictimOffer:
    """What one cache offers a sweep: the coldest rows that cover the
    deficit, and no more."""

    @staticmethod
    def offered(deficit):
        cache = PartialCache()
        cache.get_many(np.arange(40), rows_for)     # 1 float a row
        return cache.eviction_candidates(deficit)[0].tolist()

    @pytest.mark.parametrize("deficit", [1, 8, 20])
    def test_lru_offers_exactly_the_covering_rows(self, deficit):
        assert self.offered(deficit) == list(range(deficit))

    def test_an_offer_is_keys_ticks_and_frees_oldest_first(self):
        cache = budgeted(100)
        for batch in ([7, 8], [3], [5, 6]):
            cache.get_many(np.array(batch), rows_for)
        keys, ticks, frees = cache.eviction_candidates(5)
        assert keys.tolist() == [7, 8, 3, 5, 6]
        assert (np.diff(ticks) > 0).all()       # one stamp per row
        assert frees.tolist() == [1] * 5

    @pytest.mark.parametrize("width, deficit, rows", [(3, 7, 3), (4, 8, 2)])
    def test_wide_rows_offer_the_fewest_that_cover(self, width, deficit, rows):
        cache = PartialCache()
        cache.get_many(np.arange(10), lambda k: np.ones((k.size, width)))
        keys, _, frees = cache.eviction_candidates(deficit)
        assert keys.tolist() == list(range(rows))
        assert frees.tolist() == [width] * rows

    def test_no_deficit_offers_nothing(self):
        cache = PartialCache()
        cache.get_many(np.arange(10), rows_for)
        assert [part.size for part in cache.eviction_candidates(0)] == [0] * 3


class TestTrim:
    def test_trim_takes_the_oldest_ticks_across_caches(self):
        store = PartialStore()
        a = store.acquire("fp-a")
        b = store.acquire("fp-b")
        a.get_many(np.array([0, 1]), rows_for)    # tick 1
        b.get_many(np.array([0, 1, 2]), rows_for) # tick 2
        a.get_many(np.array([5]), rows_for)       # tick 3
        assert store.trim(3) == 3
        assert a.keys() == [5]
        assert b.keys() == [1, 2]
        assert store.stats().cross_evictions == 3


class TestRebudget:
    def test_lifting_the_budget_stops_sweeps_until_one_returns(self):
        store = PartialStore(capacity_floats=10)
        a = store.acquire("fp-a")
        a.get_many(np.arange(12), rows_for)
        assert store.floats_resident == 9
        assert store.set_budget(None) == 0
        a.get_many(np.arange(12, 18), rows_for)
        assert store.floats_resident == 15        # nothing swept
        assert store.stats().capacity_floats is None
        # The caches kept their clock: a new bound sweeps, oldest first.
        assert store.set_budget(10) == 6
        assert a.keys() == list(range(9, 18))

    def test_a_budget_imposed_on_live_warm_caches_takes_the_coldest(self):
        store = PartialStore()
        a = store.acquire("fp-a")
        b = store.acquire("fp-b")
        a.get_many(np.arange(6), rows_for)        # tick 1
        b.get_many(np.arange(6), rows_for)        # tick 2
        a.get_many(np.array([0, 1]), rows_for)    # tick 3: hits
        assert store.floats_resident == 12
        assert store.set_budget(9) == 4           # down to 8
        assert store.floats_resident == 8
        # The coldest rows were a's untouched ones; b's and a's hit
        # rows are younger.
        assert a.keys() == [0, 1]
        assert b.keys() == list(range(6))
        assert store.governor_sweeps == 1

    def test_lifting_the_budget_mid_sweep_loses_no_request(self):
        class LiftedWhileReading(PartialStore):
            """Lifts its budget the first time the governor reads the
            residency — between its reads of the bound."""

            lifted = False

            @property
            def floats_resident(self):
                if not self.lifted:
                    self.lifted = True
                    self.set_budget(None)
                return super().floats_resident

        store = LiftedWhileReading(capacity_floats=4)
        a = store.acquire("fp-a")
        keys = np.arange(6)
        np.testing.assert_array_equal(
            a.get_many(keys, rows_for), rows_for(keys)
        )
        assert store.lifted and store.capacity_floats is None
        # The sweep that was under way finished against the bound it
        # read; the next batch sees no bound at all.
        a.get_many(np.arange(6, 12), rows_for)
        assert store.floats_resident == 3 + 6


class TestBudgetBoundsRealMemory:
    """The budget is enforced in live rows; the slabs holding them
    track that number, so it bounds the memory really held."""

    WIDTH = 64

    def wide_rows(self, keys):
        keys = np.asarray(keys, dtype=np.float64)
        return np.repeat(keys, self.WIDTH).reshape(-1, self.WIDTH)

    def fill(self, cache, rows, batch=400):
        for start in range(0, rows, batch):
            cache.get_many(np.arange(start, start + batch), self.wide_rows)

    def test_shifted_traffic_and_a_lowered_budget_give_memory_back(
        self, traced
    ):
        rows = 4000
        budget = rows * self.WIDTH * 8          # bytes
        slack = budget // 8                     # columns, index, a batch
        store = PartialStore(capacity_floats=rows * self.WIDTH)
        a = store.acquire("fp-a")
        b = store.acquire("fp-b")
        self.fill(a, rows)
        assert store.bytes_resident == budget
        assert traced() <= 1.5 * budget + slack      # slab growth
        self.fill(b, rows)                      # the governor empties A
        assert len(a) == 0 and store.bytes_resident <= budget
        assert traced() <= 1.5 * budget + slack
        store.set_budget(rows * self.WIDTH // 20)
        assert store.bytes_resident <= budget // 20
        assert traced() <= 1.5 * (budget // 20) + slack // 4
        # What is left is still served, bit for bit, from the new slab.
        kept = np.array(sorted(
            key for key in range(rows) if key in b
        ))
        assert kept.size == store.bytes_resident // (self.WIDTH * 8)
        np.testing.assert_array_equal(
            b.get_many(kept, None), self.wide_rows(kept)
        )
        store.close()


class TestConcurrentBudget:
    def test_exact_rows_and_bounded_residency_under_contention(self):
        store = PartialStore(capacity_floats=16)
        caches = [store.acquire(f"fp-{i}") for i in range(2)]
        rng = np.random.default_rng(3)
        batches = [
            np.asarray(
                sorted(rng.choice(64, size=12, replace=False)),
                dtype=np.int64,
            )
            for _ in range(40)
        ]
        errors = []

        def worker(cache, my_batches):
            try:
                for keys in my_batches:
                    rows = cache.get_many(keys, rows_for)
                    np.testing.assert_array_equal(rows, rows_for(keys))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(cache, batches[i::4]))
            for i, cache in enumerate(caches * 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Every batch enforced on its way out, so once the last one
        # is done the store must sit within its budget.
        assert store.floats_resident <= 16
        assert store.stats().cross_evictions > 0


class TestServiceBudget:
    def test_invalid_budget_rejected(self, db):
        with pytest.raises(ModelError, match="memory_budget"):
            serve(db, memory_budget=0)

    def test_two_models_under_half_budget_stay_bit_exact(
        self, db, binary_star
    ):
        nn1 = fit_nn(
            db, binary_star.spec, hidden_sizes=(6,), epochs=1, seed=1
        )
        nn2 = fit_nn(
            db, binary_star.spec, hidden_sizes=(6,), epochs=1, seed=2
        )
        fact = binary_star.spec.resolve(db).fact
        rows = fact.scan()
        features = fact.project_features(rows)
        fk = rows[:, fact.schema.fk_position("R1")].astype(np.int64)

        unbounded = serve(db)
        unbounded.register_nn("one", nn1, binary_star.spec)
        unbounded.register_nn("two", nn2, binary_star.spec)
        base1 = unbounded.predict("one", features, fk)
        base2 = unbounded.predict("two", features, fk)
        working_set = unbounded.store.bytes_resident
        unbounded.close()

        budget = working_set // 2
        governed = serve(db, memory_budget=budget)
        governed.register_nn("one", nn1, binary_star.spec)
        governed.register_nn("two", nn2, binary_star.spec)
        out1 = governed.predict("one", features, fk)
        out2 = governed.predict("two", features, fk)
        np.testing.assert_array_equal(out1, base1)
        np.testing.assert_array_equal(out2, base2)
        assert governed.store.bytes_resident <= budget
        assert governed.store_stats().cross_evictions > 0
        governed.close()

    def test_failed_registration_releases_partial_acquires(
        self, db, multiway_star, monkeypatch
    ):
        from repro.runtime import planner

        nn = fit_nn(
            db, multiway_star.spec, hidden_sizes=(6,), epochs=1, seed=1
        )
        with serve_runtime(db, num_workers=1) as rt:
            rt.register_nn("a", nn, multiway_star.spec)
            attachments = rt.store.stats().attachments
            # An adaptive registration's one predictor acquires its
            # caches — one per dimension, the same fingerprints as "a"
            # — before the planner is built; when that build fails,
            # every acquire must be given back.
            built = []
            make_predictor = core.make_predictor

            def recording(*args, **kwargs):
                built.append(make_predictor(*args, **kwargs))
                return built[-1]

            def failing(*args, **kwargs):
                raise ModelError("planner build failed")

            monkeypatch.setattr(core, "make_predictor", recording)
            monkeypatch.setattr(planner, "BatchPlanner", failing)
            with pytest.raises(ModelError, match="build failed"):
                rt.register_nn("b", nn, multiway_star.spec)
            (predictor,) = built
            assert len(predictor.caches) == multiway_star.spec.num_dimensions
            assert rt.store.stats().attachments == attachments
            assert "b" not in rt
            rt.unregister("a")
            assert len(rt.store) == 0       # no leaked refcounts

    def test_runtime_memory_budget_threads_to_the_store(self, db):
        with serve_runtime(db, num_workers=1, memory_budget=4096) as rt:
            assert rt.store.capacity_floats == 4096 // 8
            assert rt.runtime_stats().store.capacity_floats == 4096 // 8
        with pytest.raises(ModelError, match="memory_budget"):
            serve_runtime(db, memory_budget=-1)
