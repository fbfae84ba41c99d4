"""Tiered partial memory: ladder transitions, exactness, accounting.

The contract under test (see ``docs/tuning.md`` and
:mod:`repro.fx.tiers`):

* ``float32`` — GMM labels bit-exact, scores within
  ``FLOAT32_SCORE_RTOL`` of the float64 answer;
* ``spill`` — bit-exact (the float64 row round-trips through a heap
  file);
* every tier's residency reconciles with the governor's accounting,
  under arbitrary interleavings of demote / promote / invalidate.
"""

import sys
import threading
import warnings

import numpy as np
import pytest

from repro.errors import ModelError, StorageError
from repro.fx.store import PartialStore
from repro.fx.tiers import (
    FLOAT32_SCORE_RTOL,
    STORE_TIERS,
    TIER_FLOAT32,
    TIER_RESIDENT,
    TIER_SPILL,
    SpillSlab,
    compress,
    decompress,
    float_equivalents,
    validate_tiers,
)


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


WIDTH = 16


def rows_for(keys):
    """Deterministic ground-truth rows: key-dependent, varying within
    each row."""
    keys = np.asarray(keys, dtype=np.float64)
    return keys[:, None] + np.linspace(0.0, 3.0, WIDTH)[None, :]


def tier_of(cache, key):
    """Which tier holds ``key`` in one partial cache."""
    return cache.tier_of(key)


def reconcile(cache, width=WIDTH):
    """Assert the cache's tier accounting against a recount of its
    actual entries — the governor's budget truth."""
    held = cache.keys()
    resident = len(cache.keys(TIER_RESIDENT)) * width
    compressed = float_equivalents(TIER_FLOAT32, width) * len(
        cache.keys(TIER_FLOAT32)
    )
    spilled = len(cache.keys(TIER_SPILL)) * width * 8
    record = cache.residency()
    assert record.floats - record.compressed_floats == resident
    assert record.compressed_floats == compressed
    assert record.spilled_bytes == spilled
    assert cache.floats_resident == resident + compressed
    assert cache.bytes_resident == (resident + compressed) * 8
    # A key lives in exactly one tier.
    assert len(set(held)) == len(held)
    assert all(cache.tier_of(key) is not None for key in held)
    stats = cache.stats()
    assert stats.compressed_floats_resident == compressed
    assert stats.compressed_bytes_resident == compressed * 8
    assert stats.spilled_bytes == spilled
    assert cache.demotions_total == sum(cache.demotions.values())
    assert cache.promotions_total == sum(cache.promotions.values())


class TestTierPrimitives:
    def test_validate_tiers_normalizes_to_ladder_order(self):
        assert validate_tiers(None) == ()
        assert validate_tiers(()) == ()
        assert validate_tiers("spill") == (TIER_SPILL,)
        assert validate_tiers(["spill", "float32", "spill"]) == (
            TIER_FLOAT32, TIER_SPILL,
        )
        with pytest.raises(ModelError, match="unknown store tier"):
            validate_tiers(("zstd",))

    def test_the_deleted_int8_tier_is_refused_by_name(self):
        with pytest.raises(ModelError, match="float32, spill"):
            validate_tiers("int8")
        with pytest.raises(ModelError, match="float32, spill"):
            PartialStore(tiers=("float32", "int8"))

    def test_float_equivalents_decrease_down_the_ladder_when_wide(self):
        charges = [
            float_equivalents(t, WIDTH)
            for t in (TIER_RESIDENT,) + STORE_TIERS
        ]
        assert charges == [16, 8, 0]
        assert charges == sorted(charges, reverse=True)
        with pytest.raises(ModelError, match="unknown store tier"):
            float_equivalents("zstd", 4)

    def test_float32_roundtrip_within_documented_rtol(self):
        row = rows_for(np.array([12345]))[0]
        back = decompress(TIER_FLOAT32, compress(TIER_FLOAT32, row))
        np.testing.assert_allclose(back, row, rtol=FLOAT32_SCORE_RTOL)
        assert back.dtype == np.float64

    def test_only_compressed_tiers_have_an_encoding(self):
        row = np.ones(4)
        for tier in (TIER_RESIDENT, TIER_SPILL):
            with pytest.raises(ModelError, match="no compressed"):
                compress(tier, row)
            with pytest.raises(ModelError, match="no compressed"):
                decompress(tier, row)


class TestSpillSlab:
    def test_rows_roundtrip_bit_exact_per_width(self, tmp_path):
        slab = SpillSlab(tmp_path)
        narrow = np.arange(4, dtype=np.float64)
        wide = np.linspace(-1, 1, 16)
        p_narrow = slab.put(narrow)
        p_wide = slab.put(wide)
        np.testing.assert_array_equal(
            slab.read_rows(4, [p_narrow])[0], narrow
        )
        np.testing.assert_array_equal(
            slab.read_rows(16, [p_wide])[0], wide
        )
        slab.reset()

    def test_freed_positions_are_recycled(self, tmp_path):
        slab = SpillSlab(tmp_path)
        first = slab.put(np.ones(4))
        slab.free(4, first)
        again = slab.put(np.full(4, 2.0))
        assert again == first        # slot reuse, not file growth
        np.testing.assert_array_equal(
            slab.read_rows(4, [again])[0], np.full(4, 2.0)
        )
        slab.reset()

    def test_unknown_width_raises(self, tmp_path):
        slab = SpillSlab(tmp_path)
        with pytest.raises(StorageError, match="no spill heap"):
            slab.read_rows(7, [0])

    def test_reset_deletes_the_files(self, tmp_path):
        slab = SpillSlab(tmp_path)
        slab.put(np.ones(4))
        assert list(tmp_path.glob("spill-*.heap"))
        slab.reset()
        assert not list(tmp_path.glob("spill-*.heap"))

    def test_a_block_recycles_freed_positions_before_the_file_grows(
        self, tmp_path
    ):
        slab = SpillSlab(tmp_path)
        block = rows_for(np.arange(10))
        positions = slab.put(block)
        assert sorted(positions.tolist()) == list(range(10))
        slab.free(WIDTH, positions[[1, 4, 7]])
        more = rows_for(np.arange(100, 105))
        again = slab.put(more)
        # Three recycled, two appended: 12 rows on disk, not 15.
        assert sorted(again.tolist()) == [1, 4, 7, 10, 11]
        assert slab._heaps[WIDTH].nrows == 12
        np.testing.assert_array_equal(slab.read_rows(WIDTH, again), more)
        kept = np.setdiff1d(np.arange(10), [1, 4, 7])
        np.testing.assert_array_equal(
            slab.read_rows(WIDTH, positions[kept]), block[kept]
        )
        slab.reset()


class CountingHeapFile:
    """Counts what a spill costs in calls, not seconds: heap write
    calls (``append`` / ``update_rows`` that carry rows), metadata
    rewrites, and file opens — each was once paid per demoted row."""

    def __init__(self, monkeypatch):
        import builtins

        from repro.storage.heapfile import HeapFile

        self.writes = self.metas = self.opens = 0
        real_open = builtins.open

        def counted(name, attribute, rows_at=None):
            real = getattr(HeapFile, name)

            def method(heap, *args):
                if rows_at is None or len(args[rows_at]):
                    setattr(self, attribute, getattr(self, attribute) + 1)
                return real(heap, *args)

            monkeypatch.setattr(HeapFile, name, method)

        counted("append", "writes", rows_at=0)
        counted("update_rows", "writes", rows_at=1)
        counted("_write_meta", "metas")

        def counting_open(path, *args, **kwargs):
            if str(path).endswith(".heap"):
                self.opens += 1
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)

    def reset(self):
        self.writes = self.metas = self.opens = 0


class TestBlockSpill:
    """The regression guard of PR 19, machine-independent: a governor
    sweep spills its victims of one width as a block."""

    ROWS = 3000
    # A budget of 1,500 rows trims to its 0.9 watermark: 1,350 rows.
    BUDGET_ROWS, KEPT_ROWS = 1500, 1350

    def test_a_sweep_is_two_heap_writes_and_one_metadata_write(
        self, monkeypatch
    ):
        store = PartialStore(
            capacity_floats=WIDTH * self.ROWS, tiers=(TIER_SPILL,)
        )
        cache = store.acquire("fp")
        cache.get_many(np.arange(self.ROWS), rows_for)
        counts = CountingHeapFile(monkeypatch)
        # First sweep: every victim is appended — one write, one
        # metadata rewrite (plus the heap file's creation).
        store.set_budget(WIDTH * self.BUDGET_ROWS)
        spilled = self.ROWS - self.KEPT_ROWS
        assert cache.demotions == {TIER_SPILL: spilled}
        assert store.governor_sweeps == 1
        assert (counts.writes, counts.metas) == (1, 2)
        assert counts.opens <= 3
        # Promote 600 of them beside 600 new rows, and the sweep that
        # follows spills 1,200: the freed positions are overwritten in
        # one page-batched call, the rest appended in another, under
        # one metadata write.
        counts.reset()
        batch = np.concatenate([np.arange(600), np.arange(3000, 3600)])
        cache.get_many(batch, rows_for)
        assert cache.promotions == {TIER_SPILL: 600}
        assert cache.demotions == {TIER_SPILL: spilled + 1200}
        assert store.governor_sweeps == 2
        assert (counts.writes, counts.metas) == (2, 1)
        assert store._spill_root is not None
        heap, = cache._spill._heaps.values()
        assert heap.nrows == spilled + 600
        np.testing.assert_array_equal(
            cache.get_many(np.arange(3600), rows_for),
            rows_for(np.arange(3600)),
        )
        assert cache.misses == 3600     # nothing was ever recomputed
        store.close()


class TestTierLadder:
    def make(self, tiers, capacity_floats=WIDTH * 2):
        store = PartialStore(capacity_floats=capacity_floats, tiers=tiers)
        return store, store.acquire("fp")

    def test_spill_tier_requires_a_directory(self):
        from repro.serve.cache import PartialCache

        with pytest.raises(ModelError, match="spill_dir"):
            PartialCache(tiers=(TIER_SPILL,))

    def test_eviction_demotes_instead_of_dropping(self):
        store, cache = self.make((TIER_FLOAT32, TIER_SPILL))
        cache.get_many(np.arange(3), rows_for)    # 48 floats > 32
        # The coldest key walked down the ladder; every key is still
        # reachable without recompute.
        assert tier_of(cache, 0) in (TIER_FLOAT32, TIER_SPILL)
        assert all(k in cache for k in range(3))
        assert store.floats_resident <= 32
        assert cache.demotions.get(TIER_FLOAT32, 0) >= 1
        reconcile(cache)

    def test_demotion_cascades_to_spill_under_more_pressure(self):
        store, cache = self.make((TIER_FLOAT32, TIER_SPILL), WIDTH)
        cache.get_many(np.arange(4), rows_for)
        assert cache.demotions.get(TIER_SPILL, 0) >= 1
        assert cache.stats().spilled_entries >= 1
        # Spilled rows charge disk, not the budget.
        assert store.floats_resident <= WIDTH + WIDTH // 2
        reconcile(cache)

    def test_a_row_hit_since_stays_resident_while_older_rows_demote(self):
        # A budget whose 0.9 watermark is two whole rows.
        store, cache = self.make(STORE_TIERS, WIDTH * 2 + 4)
        for key in (0, 1, 0, 2):                  # 0 is hit at tick 3
            cache.get_many(np.array([key]), rows_for)
        assert tier_of(cache, 0) == TIER_RESIDENT
        assert tier_of(cache, 2) == TIER_RESIDENT
        assert tier_of(cache, 1) in (TIER_FLOAT32, TIER_SPILL)
        assert store.floats_resident <= WIDTH * 2
        reconcile(cache)

    def test_promotion_returns_spilled_rows_bit_exact(self):
        store, cache = self.make((TIER_SPILL,), WIDTH)
        cache.get_many(np.arange(3), rows_for)
        spilled = [k for k in range(3) if tier_of(cache, k) == TIER_SPILL]
        assert spilled
        calls = []

        def forbidden(keys):  # pragma: no cover - failure path
            calls.append(keys)
            return rows_for(keys)

        out = cache.get_many(np.array(spilled), forbidden)
        np.testing.assert_array_equal(out, rows_for(np.array(spilled)))
        assert not calls              # promoted, never recomputed
        assert cache.promotions.get(TIER_SPILL, 0) == len(spilled)
        reconcile(cache)

    def test_promotion_counts_as_hit_not_miss(self):
        store, cache = self.make((TIER_SPILL,), WIDTH)
        cache.get_many(np.arange(3), rows_for)
        before = cache.stats()
        spilled = [k for k in range(3) if tier_of(cache, k) == TIER_SPILL]
        cache.get_many(np.array(spilled), rows_for)
        after = cache.stats()
        assert after.hits == before.hits + len(spilled)
        assert after.misses == before.misses

    def test_gain_guard_drops_rows_no_rung_can_shrink(self):
        # 1-float rows: float32 still charges 1 float — no gain, so
        # eviction falls off the ladder and counts a "drop".
        store = PartialStore(capacity_floats=2, tiers=(TIER_FLOAT32,))
        cache = store.acquire("fp")

        def narrow(keys):
            return np.asarray(keys, dtype=np.float64)[:, None]

        cache.get_many(np.arange(4), narrow)
        assert cache.demotions.get("drop", 0) >= 1
        assert cache.demotions.get(TIER_FLOAT32, 0) == 0
        assert store.floats_resident <= 2
        reconcile(cache, width=1)

    def test_spilled_rows_are_terminal_until_invalidated(self):
        store, cache = self.make((TIER_SPILL,), WIDTH)
        cache.get_many(np.arange(4), rows_for)
        spilled = [k for k in range(4) if tier_of(cache, k) == TIER_SPILL]
        assert spilled
        # More pressure cannot touch them (they charge nothing)...
        store.enforce_budget()
        assert all(tier_of(cache, k) == TIER_SPILL for k in spilled)
        # ...but invalidation still removes them, freeing their slots.
        dropped = cache.invalidate(np.array(spilled))
        assert dropped == len(spilled)
        assert all(k not in cache for k in spilled)
        assert cache.residency().spilled_bytes == 0
        reconcile(cache)

    def test_compressed_rows_remain_eviction_candidates(self):
        # Once everything resident demoted to float32, continued
        # pressure walks the compressed rows further down the ladder.
        store, cache = self.make((TIER_FLOAT32, TIER_SPILL), WIDTH // 2)
        cache.get_many(np.arange(4), rows_for)
        assert store.floats_resident <= WIDTH // 2 + WIDTH
        assert cache.demotions.get(TIER_SPILL, 0) >= 1
        reconcile(cache)

    def test_invalidation_reaches_every_tier(self):
        store, cache = self.make(STORE_TIERS, WIDTH)
        cache.get_many(np.arange(5), rows_for)
        tiers_held = {tier_of(cache, k) for k in range(5)}
        assert len(tiers_held) > 1    # the point: keys span tiers
        assert cache.invalidate(np.arange(5)) == 5
        assert all(k not in cache for k in range(5))
        assert cache.floats_resident == 0
        assert cache.residency().spilled_bytes == 0
        reconcile(cache)

    def test_clear_resets_every_tier_and_counter(self):
        store, cache = self.make(STORE_TIERS, WIDTH)
        cache.get_many(np.arange(5), rows_for)
        cache.clear()
        assert cache.floats_resident == 0
        assert cache.residency().spilled_bytes == 0
        assert cache.demotions_total == 0 and cache.promotions_total == 0
        assert len(cache) == 0
        reconcile(cache)

    def test_release_spill_drops_only_the_disk_tier(self):
        store, cache = self.make((TIER_FLOAT32, TIER_SPILL), WIDTH)
        cache.get_many(np.arange(4), rows_for)
        resident_before = cache.floats_resident
        spill_root = store._spill_root
        assert spill_root is not None and spill_root.exists()
        store.release_spill()
        assert not spill_root.exists()
        assert cache.residency().spilled_bytes == 0
        assert not cache.keys(TIER_SPILL)
        # Memory tiers untouched; spilled keys just recompute now.
        assert cache.floats_resident == resident_before
        store.release_spill()         # idempotent

    def test_store_close_removes_the_spill_directory(self):
        store, cache = self.make((TIER_SPILL,), WIDTH)
        cache.get_many(np.arange(4), rows_for)
        spill_root = store._spill_root
        assert spill_root is not None and spill_root.exists()
        store.close()
        assert not spill_root.exists()

    def test_spilling_after_release_spill_leaks_no_directory(self):
        # ServingCore.close() releases the spill tier while holders
        # still have their caches: a later demotion used to re-create
        # the deleted directory behind the store's back (no finalizer,
        # never removed).  The slab now asks the store each time.
        store, cache = self.make((TIER_SPILL,), WIDTH)
        cache.get_many(np.arange(4), rows_for)
        first = store._spill_root
        store.release_spill()
        assert not first.exists() and store._spill_root is None
        cache.get_many(np.arange(4, 8), rows_for)       # spills again
        second = store._spill_root
        assert cache.keys(TIER_SPILL)
        assert second is not None and second != first and second.exists()
        assert not first.exists()
        assert store._spill_finalizer.alive     # re-armed for the new one
        np.testing.assert_array_equal(
            cache.get_many(np.arange(4, 8), rows_for),
            rows_for(np.arange(4, 8)),
        )
        store.close()
        assert not first.exists() and not second.exists()


class TestConcurrentSpill:
    def test_one_slab_loses_no_position_under_contention(self):
        """More threads than cores over one cache that spills into its
        slab, invalidations in between: every row comes back bit-exact
        and every heap position is either held by exactly one spilled
        key or on the free stack — a lost update to the stack would
        hand one position to two rows."""
        store = PartialStore(capacity_floats=WIDTH * 8, tiers=(TIER_SPILL,))
        cache = store.acquire("fp")
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for step in range(60):
                    keys = np.sort(rng.choice(64, size=12, replace=False))
                    np.testing.assert_array_equal(
                        cache.get_many(keys, rows_for), rows_for(keys)
                    )
                    if step % 5 == 4:
                        cache.invalidate(rng.choice(64, size=3))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        reconcile(cache)
        slab = cache._spill
        held = cache._spilled.slab[cache._spilled.slots, 0]
        positions = np.concatenate([held, slab._free[WIDTH]])
        assert held.size == len(cache.keys(TIER_SPILL))
        assert np.unique(positions).size == positions.size
        assert positions.size == slab._heaps[WIDTH].nrows
        store.close()


LADDERS = [
    (TIER_FLOAT32,),
    (TIER_SPILL,),
    (TIER_FLOAT32, TIER_SPILL),
]


class TestRandomizedTierTransitions:
    """Property suite: random demote/promote/invalidate schedules
    across every ladder must keep values within the tier contract, the
    per-tier accounting reconciled and the store within its budget (or
    nothing left it could evict) after every op."""

    @pytest.mark.parametrize(
        "tiers", LADDERS, ids=["+".join(t) for t in LADDERS]
    )
    def test_random_schedules_hold_the_contract(self, tiers):
        rng = np.random.default_rng(hash(tiers) % (2**32))
        store = PartialStore(capacity_floats=WIDTH * 3, tiers=tiers)
        cache = store.acquire("fp")
        universe = np.arange(24)
        # float32's rtol governs when it is in the ladder; pure spill
        # is bit-exact.
        atol = 0.0
        rtol = FLOAT32_SCORE_RTOL if TIER_FLOAT32 in tiers else 0.0
        for step in range(120):
            op = rng.choice(["get", "invalidate", "sweep"])
            if op == "get":
                keys = rng.choice(universe, size=rng.integers(1, 8),
                                  replace=False)
                keys = np.sort(keys)
                out = cache.get_many(keys, rows_for)
                truth = rows_for(keys)
                if rtol or atol:
                    np.testing.assert_allclose(
                        out, truth, rtol=rtol, atol=atol
                    )
                else:
                    np.testing.assert_array_equal(out, truth)
            elif op == "invalidate":
                keys = rng.choice(universe, size=rng.integers(1, 6),
                                  replace=False)
                cache.invalidate(keys)
                for key in keys:
                    assert int(key) not in cache
            elif op == "sweep":
                store.enforce_budget()
            reconcile(cache)
            # A batch runs the governor only when it added charge, so
            # the budget must hold after every op, not just after sweeps.
            assert (
                store.floats_resident <= WIDTH * 3
                or not cache.eviction_candidates(1)[0].size
            )
        store.enforce_budget()
        assert store.floats_resident <= WIDTH * 3
        reconcile(cache)
        store.close()
        assert store._spill_root is None

    @pytest.mark.parametrize(
        "tiers", LADDERS, ids=["+".join(t) for t in LADDERS]
    )
    def test_demotion_promotion_cycles_never_lose_keys(self, tiers):
        store = PartialStore(capacity_floats=WIDTH * 2, tiers=tiers)
        cache = store.acquire("fp")
        rng = np.random.default_rng(17)
        seen = set()
        for _ in range(30):
            keys = np.sort(
                rng.choice(12, size=rng.integers(1, 6), replace=False)
            )
            cache.get_many(keys, rows_for)
            seen.update(int(k) for k in keys)
            # Unless dropped off the ladder's end, every key ever
            # inserted is still reachable in some tier.
            dropped = cache.demotions.get("drop", 0)
            held = sum(1 for k in seen if k in cache)
            assert held >= len(seen) - dropped
            reconcile(cache)
        store.close()


class TestGovernorHysteresis:
    """A steady-state workload 5% over budget must not invoke the
    governor every batch: a tripped governor trims to a low
    watermark."""

    @staticmethod
    def drive(batches=20):
        store = PartialStore(capacity_floats=100)
        cache = store.acquire("fp")

        def narrow(keys):
            return np.asarray(keys, dtype=np.float64)[:, None]

        cache.get_many(np.arange(100), narrow)    # fill to budget
        for i in range(batches):
            fresh = np.arange(100 + i * 5, 105 + i * 5)
            cache.get_many(fresh, narrow)         # +5 rows, ~5% over
        sweeps = store.governor_sweeps
        store.close()
        return sweeps

    def test_hysteresis_bounds_sweep_frequency(self):
        batches = 20
        # Trimming to 90% buys ~2 quiet batches per trip: at most one
        # sweep per two batches, and at least one sweep overall.
        assert 1 <= self.drive(batches) <= batches // 2

    def test_sweeps_are_counted_not_rows(self):
        store = PartialStore(capacity_floats=3)   # watermark: 2 rows
        cache = store.acquire("fp")

        def narrow(keys):
            return np.asarray(keys, dtype=np.float64)[:, None]

        cache.get_many(np.arange(6), narrow)
        # One get_many = one governor trip, however many rows it swept.
        assert store.governor_sweeps == 1
        assert store.stats().governor_sweeps == 1
        assert store.stats().cross_evictions == 4

    def test_runtime_exports_the_sweep_counter(self, db, binary_star):
        from repro.core.api import fit_nn, serve_runtime

        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(6,), epochs=1, seed=1
        )
        fact = binary_star.spec.resolve(db).fact
        rows = fact.scan()
        features = fact.project_features(rows)
        fk = rows[:, fact.schema.fk_position("R1")].astype(np.int64)
        with serve_runtime(
            db, num_workers=1, memory_budget=512,
            store_tiers=("float32", "spill"), telemetry=True,
            max_wait_ms=0.0,
        ) as rt:
            rt.register_nn("m", nn, binary_star.spec,
                           strategy="factorized")
            for start in range(0, 200, 50):
                rt.predict(
                    "m", features[start:start + 50], fk[start:start + 50]
                )
            snapshot = rt.telemetry.registry.snapshot()
            sweeps = snapshot.value("repro_store_governor_sweeps_total")
            batches = rt.runtime_stats().batches
            assert sweeps == rt.store.governor_sweeps
            # At most one sweep per batch, never one per row.
            assert 0 < sweeps <= batches
            assert snapshot.value(
                "repro_store_tier_bytes_resident", tier="spill"
            ) >= 0
