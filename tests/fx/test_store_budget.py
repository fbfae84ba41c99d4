"""Store-wide memory budget: cross-cache eviction, re-budgeting,
exactness."""

import threading
import warnings

import numpy as np
import pytest

from repro.core.api import fit_nn, serve, serve_runtime
from repro.core.strategies import MATERIALIZED
from repro.errors import ModelError
from repro.fx.store import PartialStore
from repro.serve import core
from repro.serve.service import ModelService


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
        assert store.floats_resident == 10
        stats = store.stats()
        assert stats.cross_evictions == 2
        assert stats.capacity_floats == 10

    def test_eviction_order_is_global_lru(self):
        store = PartialStore(capacity_floats=10)
        a = store.acquire("fp-a")
        b = store.acquire("fp-b")
        a.get_many(np.arange(6), rows_for)        # ticks 1..6
        b.get_many(np.arange(6), rows_for)        # ticks 7..12 -> evict 2
        # The two globally coldest rows were cache A's keys 0 and 1;
        # cache B (all newer) kept everything.
        assert 0 not in a and 1 not in a
        assert all(k in a for k in range(2, 6))
        assert all(k in b for k in range(6))

    def test_hot_fingerprint_takes_share_from_cold_one(self):
        store = PartialStore(capacity_floats=8)
        cold = store.acquire("fp-cold")
        hot = store.acquire("fp-hot")
        cold.get_many(np.arange(4), rows_for)
        for _ in range(3):                        # keep hot keys recent
            hot.get_many(np.arange(6), rows_for)
        shares = store.stats().fingerprints
        assert shares["fp-hot"] == 6 * 8          # fully resident
        assert shares["fp-cold"] == 2 * 8         # squeezed to the rest

    def test_tinylfu_rank_prefers_low_frequency_victims(self):
        store = PartialStore(capacity_floats=2, admission="tinylfu")
        a = store.acquire("fp-a")
        b = store.acquire("fp-b")
        for _ in range(3):
            a.get_many(np.array([1]), rows_for)   # freq 3, oldest tick
        b.get_many(np.array([2]), rows_for)       # freq 1
        store.acquire("fp-c").get_many(np.array([3]), rows_for)
        # Pure LRU would evict a's key 1 (oldest tick); frequency rank
        # protects it and takes b's one-hit wonder instead.
        assert 1 in a
        assert 2 not in b

    def test_tinylfu_sample_sees_past_a_hot_lru_tail_row(self):
        store = PartialStore(capacity_floats=3, admission="tinylfu")
        a = store.acquire("fp-a")
        for _ in range(5):
            a.get_many(np.array([1]), rows_for)   # hot (freq 5)
        a.get_many(np.array([2]), rows_for)
        a.get_many(np.array([3]), rows_for)
        # LRU order is now [1, 2, 3]: the hot row sits at the eviction
        # end.  The bounded sample must look past it to the cold rows.
        a.get_many(np.array([4]), rows_for)       # push over budget
        assert 1 in a
        assert 2 not in a                         # coldest of the rest

    def test_lru_rank_evicts_oldest_tick(self):
        store = PartialStore(capacity_floats=2)
        a = store.acquire("fp-a")
        b = store.acquire("fp-b")
        for _ in range(3):
            a.get_many(np.array([1]), rows_for)
        b.get_many(np.array([2]), rows_for)
        store.acquire("fp-c").get_many(np.array([3]), rows_for)
        # Without the sketch the same workload evicts by recency: a's
        # key 1 was touched last two ticks before b's key 2.
        assert 1 not in a
        assert 2 in b

    def test_cross_evictions_visible_per_cache_and_store(self):
        store = PartialStore(capacity_floats=4)
        a = store.acquire("fp-a")
        b = store.acquire("fp-b")
        a.get_many(np.arange(4), rows_for)
        b.get_many(np.arange(4), rows_for)
        stats = store.stats()
        assert stats.cross_evictions == 4
        assert stats.cache.cross_evictions == 4   # aggregated per cache
        assert a.stats().cross_evictions == 4     # all victims were a's
        assert a.stats().evictions == 0           # the governor's alone
        assert stats.bytes_resident <= 4 * 8

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
        b.get_many(np.array([4]), rows_for)       # tick 4: one over
        # a's 0 and 1 are younger than anything of b's now; the one
        # victim is the coldest of a's untouched rows.
        assert 0 in a and 1 in a
        assert 2 not in a
        assert all(k in a for k in range(3, 6))
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


class TestRebudget:
    def test_lifting_the_budget_stops_sweeps_until_one_returns(self):
        store = PartialStore(capacity_floats=4)
        a = store.acquire("fp-a")
        a.get_many(np.arange(6), rows_for)
        assert store.floats_resident == 4
        assert store.set_budget(None) == 0
        a.get_many(np.arange(6, 12), rows_for)
        assert store.floats_resident == 10        # nothing swept
        assert store.stats().capacity_floats is None
        # The caches kept their clock: a new bound sweeps, oldest first.
        assert store.set_budget(5) == 5
        assert a.keys() == list(range(7, 12))

    def test_a_budget_cannot_be_imposed_on_live_ungoverned_caches(self):
        store = PartialStore()
        a = store.acquire("fp-a")
        a.get_many(np.arange(6), rows_for)
        with pytest.raises(ModelError, match="ungoverned"):
            store.set_budget(4)
        assert store.capacity_floats is None and len(a) == 6
        # Once the last holder leaves, a bound arms the next caches.
        store.release(a)
        assert store.set_budget(4) == 0
        b = store.acquire("fp-b")
        b.get_many(np.arange(6), rows_for)
        assert store.floats_resident == 4


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
    def test_store_and_budget_are_mutually_exclusive(self, db):
        with pytest.raises(ModelError, match="store or a memory_budget"):
            ModelService(db, store=PartialStore(), memory_budget=1024)

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
        nn = fit_nn(
            db, multiway_star.spec, hidden_sizes=(6,), epochs=1, seed=1
        )
        with serve_runtime(db, num_workers=1) as rt:
            rt.register_nn("a", nn, multiway_star.spec)
            attachments = rt.store.stats().attachments
            # An adaptive registration acquires the factorized
            # predictor's caches — one per dimension, the same
            # fingerprints as "a" — before it builds the materialized
            # predictor; when that build fails, every acquire must be
            # given back.
            build = core.make_predictor

            def failing(*args, strategy, **kwargs):
                if strategy == MATERIALIZED:
                    raise ModelError("materialized build failed")
                return build(*args, strategy=strategy, **kwargs)

            monkeypatch.setattr(core, "make_predictor", failing)
            with pytest.raises(ModelError, match="build failed"):
                rt.register_nn("b", nn, multiway_star.spec)
            assert rt.store.stats().attachments == attachments
            rt.unregister("a")
            assert len(rt.store) == 0       # no leaked refcounts

    def test_runtime_memory_budget_threads_to_the_store(self, db):
        with serve_runtime(db, num_workers=1, memory_budget=4096) as rt:
            assert rt.store.capacity_floats == 4096 // 8
            assert rt.runtime_stats().store.capacity_floats == 4096 // 8
        with pytest.raises(ModelError, match="memory_budget"):
            serve_runtime(db, memory_budget=-1)
