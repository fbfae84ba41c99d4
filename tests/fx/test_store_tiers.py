"""Tiered partial memory: ladder transitions, exactness, accounting.

The contract under test (see ``docs/tuning.md`` and
:mod:`repro.fx.tiers`):

* ``float32`` — GMM labels bit-exact, scores within
  ``FLOAT32_SCORE_RTOL`` of the float64 answer;
* ``int8`` — per-element error bounded by ``int8_error_bound(row)``;
* ``spill`` — bit-exact (the float64 row round-trips through a heap
  file);
* every tier's residency reconciles with the governor's accounting,
  under arbitrary interleavings of demote / promote / invalidate /
  pin.
"""

import warnings

import numpy as np
import pytest

from repro.errors import ModelError, StorageError
from repro.fx.store import PartialStore
from repro.fx.tiers import (
    FLOAT32_SCORE_RTOL,
    STORE_TIERS,
    TIER_FLOAT32,
    TIER_INT8,
    TIER_RESIDENT,
    TIER_SPILL,
    SpillSlab,
    compress,
    decompress,
    float_equivalents,
    int8_error_bound,
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
    each row so int8 quantization is non-trivial."""
    keys = np.asarray(keys, dtype=np.float64)
    return keys[:, None] + np.linspace(0.0, 3.0, WIDTH)[None, :]


def tier_of(shard, key):
    """Which tier holds ``key`` in one PartialCache shard."""
    return shard.tier_of(key)


def reconcile(cache, width=WIDTH):
    """Assert every shard's tier accounting against a recount of its
    actual entries — the governor's budget truth."""
    for shard in cache.shards:
        held = shard.keys()
        resident = len(shard.keys(TIER_RESIDENT)) * width
        compressed = sum(
            float_equivalents(tier, width)
            for tier in (TIER_FLOAT32, TIER_INT8)
            for _ in shard.keys(tier)
        )
        spilled = len(shard.keys(TIER_SPILL)) * width * 8
        record = shard.residency()
        assert record.floats - record.compressed_floats == resident
        assert record.compressed_floats == compressed
        assert record.spilled_bytes == spilled
        assert shard.floats_resident == resident + compressed
        assert shard.bytes_resident == (resident + compressed) * 8
        # A key lives in exactly one tier.
        assert len(set(held)) == len(held)
        assert all(shard.tier_of(key) is not None for key in held)
        stats = shard.stats()
        assert stats.compressed_floats_resident == compressed
        assert stats.compressed_bytes_resident == compressed * 8
        assert stats.spilled_bytes == spilled
        assert shard.demotions_total == sum(shard.demotions.values())
        assert shard.promotions_total == sum(shard.promotions.values())


class TestTierPrimitives:
    def test_validate_tiers_normalizes_to_ladder_order(self):
        assert validate_tiers(None) == ()
        assert validate_tiers(()) == ()
        assert validate_tiers("int8") == (TIER_INT8,)
        assert validate_tiers(["spill", "float32", "spill"]) == (
            TIER_FLOAT32, TIER_SPILL,
        )
        with pytest.raises(ModelError, match="unknown store tier"):
            validate_tiers(("zstd",))

    def test_float_equivalents_decrease_down_the_ladder_when_wide(self):
        charges = [
            float_equivalents(t, WIDTH)
            for t in (TIER_RESIDENT,) + STORE_TIERS
        ]
        assert charges == [16, 8, 4, 0]
        assert charges == sorted(charges, reverse=True)

    def test_int8_header_overhead_beats_float32_on_narrow_rows(self):
        # Width 4: float32 charges 2 floats, int8 charges (4+7)//8 + 2
        # = 3 — the gain guard must skip int8 for such rows.
        assert float_equivalents(TIER_FLOAT32, 4) == 2
        assert float_equivalents(TIER_INT8, 4) == 3
        with pytest.raises(ModelError, match="unknown store tier"):
            float_equivalents("zstd", 4)

    def test_float32_roundtrip_within_documented_rtol(self):
        row = rows_for(np.array([12345]))[0]
        back = decompress(TIER_FLOAT32, compress(TIER_FLOAT32, row))
        np.testing.assert_allclose(back, row, rtol=FLOAT32_SCORE_RTOL)
        assert back.dtype == np.float64

    def test_int8_roundtrip_within_error_bound(self):
        rng = np.random.default_rng(5)
        row = rng.normal(size=64) * 10.0
        back = decompress(TIER_INT8, compress(TIER_INT8, row))
        assert np.max(np.abs(back - row)) <= int8_error_bound(row) + 1e-12

    def test_int8_constant_row_is_exact(self):
        row = np.full(8, 3.25)
        codes, scale, lo = compress(TIER_INT8, row)
        assert scale == 0.0
        np.testing.assert_array_equal(
            decompress(TIER_INT8, (codes, scale, lo)), row
        )

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


class TestTierLadder:
    def make(self, tiers, capacity_floats=WIDTH * 2):
        store = PartialStore(capacity_floats=capacity_floats, tiers=tiers)
        return store, store.acquire("fp")

    def test_spill_tier_requires_a_directory(self):
        from repro.fx.sharding import ShardedPartialCache

        with pytest.raises(ModelError, match="spill_dir"):
            ShardedPartialCache(1, tiers=(TIER_SPILL,))

    def test_eviction_demotes_instead_of_dropping(self):
        store, cache = self.make((TIER_FLOAT32, TIER_SPILL))
        cache.get_many(np.arange(3), rows_for)    # 48 floats > 32
        shard = cache.shards[0]
        # The coldest key walked down the ladder; every key is still
        # reachable without recompute.
        assert tier_of(shard, 0) in (TIER_FLOAT32, TIER_SPILL)
        assert all(k in cache for k in range(3))
        assert store.floats_resident <= 32
        assert shard.demotions.get(TIER_FLOAT32, 0) >= 1
        reconcile(cache)

    def test_demotion_cascades_to_spill_under_more_pressure(self):
        store, cache = self.make((TIER_FLOAT32, TIER_SPILL), WIDTH)
        cache.get_many(np.arange(4), rows_for)
        shard = cache.shards[0]
        assert shard.demotions.get(TIER_SPILL, 0) >= 1
        assert shard.stats().spilled_entries >= 1
        # Spilled rows charge disk, not the budget.
        assert store.floats_resident <= WIDTH + WIDTH // 2
        reconcile(cache)

    def test_promotion_returns_spilled_rows_bit_exact(self):
        store, cache = self.make((TIER_SPILL,), WIDTH)
        cache.get_many(np.arange(3), rows_for)
        shard = cache.shards[0]
        spilled = [k for k in range(3) if tier_of(shard, k) == TIER_SPILL]
        assert spilled
        calls = []

        def forbidden(keys):  # pragma: no cover - failure path
            calls.append(keys)
            return rows_for(keys)

        out = cache.get_many(np.array(spilled), forbidden)
        np.testing.assert_array_equal(out, rows_for(np.array(spilled)))
        assert not calls              # promoted, never recomputed
        assert shard.promotions.get(TIER_SPILL, 0) == len(spilled)
        reconcile(cache)

    def test_promotion_counts_as_hit_not_miss(self):
        store, cache = self.make((TIER_SPILL,), WIDTH)
        cache.get_many(np.arange(3), rows_for)
        before = cache.stats()
        shard = cache.shards[0]
        spilled = [k for k in range(3) if tier_of(shard, k) == TIER_SPILL]
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
        shard = cache.shards[0]
        assert shard.demotions.get("drop", 0) >= 1
        assert shard.demotions.get(TIER_FLOAT32, 0) == 0
        assert store.floats_resident <= 2
        reconcile(cache, width=1)

    def test_gain_guard_skips_int8_for_narrow_rows(self):
        # Width 4: int8 (3 floats) charges more than float32 (2), so
        # the ladder goes float32 -> spill, never float32 -> int8.
        store = PartialStore(
            capacity_floats=4, tiers=STORE_TIERS
        )
        cache = store.acquire("fp")

        def width4(keys):
            keys = np.asarray(keys, dtype=np.float64)
            return np.repeat(keys[:, None], 4, axis=1)

        cache.get_many(np.arange(4), width4)
        shard = cache.shards[0]
        assert shard.demotions.get(TIER_INT8, 0) == 0
        assert shard.demotions.get(TIER_SPILL, 0) >= 1
        reconcile(cache, width=4)

    def test_spilled_rows_are_terminal_until_invalidated(self):
        store, cache = self.make((TIER_SPILL,), WIDTH)
        cache.get_many(np.arange(4), rows_for)
        shard = cache.shards[0]
        spilled = [k for k in range(4) if tier_of(shard, k) == TIER_SPILL]
        assert spilled
        # More pressure cannot touch them (they charge nothing)...
        store.enforce_budget()
        assert all(tier_of(shard, k) == TIER_SPILL for k in spilled)
        # ...but invalidation still removes them, freeing their slots.
        dropped = cache.invalidate(np.array(spilled))
        assert dropped == len(spilled)
        assert all(k not in cache for k in spilled)
        assert shard.residency().spilled_bytes == 0
        reconcile(cache)

    def test_compressed_rows_remain_eviction_candidates(self):
        # Once everything resident demoted to float32, continued
        # pressure walks the compressed rows further down the ladder.
        store, cache = self.make((TIER_FLOAT32, TIER_SPILL), WIDTH // 2)
        cache.get_many(np.arange(4), rows_for)
        shard = cache.shards[0]
        assert store.floats_resident <= WIDTH // 2 + WIDTH
        assert shard.demotions.get(TIER_SPILL, 0) >= 1
        reconcile(cache)

    def test_invalidation_reaches_every_tier(self):
        store, cache = self.make(STORE_TIERS, WIDTH)
        cache.get_many(np.arange(5), rows_for)
        shard = cache.shards[0]
        tiers_held = {tier_of(shard, k) for k in range(5)}
        assert len(tiers_held) > 1    # the point: keys span tiers
        assert cache.invalidate(np.arange(5)) == 5
        assert all(k not in cache for k in range(5))
        assert shard.floats_resident == 0
        assert shard.residency().spilled_bytes == 0
        reconcile(cache)

    def test_clear_resets_every_tier_and_counter(self):
        store, cache = self.make(STORE_TIERS, WIDTH)
        cache.get_many(np.arange(5), rows_for)
        cache.clear()
        shard = cache.shards[0]
        assert shard.floats_resident == 0
        assert shard.residency().spilled_bytes == 0
        assert shard.demotions_total == 0 and shard.promotions_total == 0
        assert len(cache) == 0
        reconcile(cache)

    def test_release_spill_drops_only_the_disk_tier(self):
        store, cache = self.make((TIER_FLOAT32, TIER_SPILL), WIDTH)
        cache.get_many(np.arange(4), rows_for)
        shard = cache.shards[0]
        resident_before = shard.floats_resident
        spill_root = store._spill_root
        assert spill_root is not None and spill_root.exists()
        store.release_spill()
        assert not spill_root.exists()
        assert shard.residency().spilled_bytes == 0
        assert not shard.keys(TIER_SPILL)
        # Memory tiers untouched; spilled keys just recompute now.
        assert shard.floats_resident == resident_before
        store.release_spill()         # idempotent

    def test_store_close_removes_the_spill_directory(self):
        store, cache = self.make((TIER_SPILL,), WIDTH)
        cache.get_many(np.arange(4), rows_for)
        spill_root = store._spill_root
        assert spill_root is not None and spill_root.exists()
        store.close()
        assert not spill_root.exists()


class TestPinSafety:
    def test_pinned_rows_are_never_demoted(self):
        store = PartialStore(
            capacity_floats=WIDTH, tiers=(TIER_FLOAT32, TIER_SPILL)
        )
        cache = store.acquire("fp")
        cache.get_many(np.array([0]), rows_for)
        cache.pin(np.array([0]))
        try:
            cache.get_many(np.array([1, 2]), rows_for)
            shard = cache.shards[0]
            # The pinned row held the resident tier; pressure demoted
            # the unpinned newcomers instead.
            assert tier_of(shard, 0) == TIER_RESIDENT
        finally:
            cache.unpin(np.array([0]))
        # Unpinned, the next round of pressure may take it.
        cache.get_many(np.array([3]), rows_for)
        assert tier_of(cache.shards[0], 0) != TIER_RESIDENT
        reconcile(cache)

    def test_pin_refcounts_require_matching_unpins(self):
        store = PartialStore(
            capacity_floats=WIDTH, tiers=(TIER_SPILL,)
        )
        cache = store.acquire("fp")
        cache.get_many(np.array([7]), rows_for)
        cache.pin(np.array([7]))
        cache.pin(np.array([7]))
        cache.unpin(np.array([7]))    # one ref still held
        cache.get_many(np.arange(1, 4), rows_for)
        assert tier_of(cache.shards[0], 7) == TIER_RESIDENT
        cache.unpin(np.array([7]))
        cache.get_many(np.array([4]), rows_for)    # fresh pressure
        assert tier_of(cache.shards[0], 7) != TIER_RESIDENT


LADDERS = [
    (TIER_FLOAT32,),
    (TIER_SPILL,),
    (TIER_FLOAT32, TIER_SPILL),
    STORE_TIERS,
]


class TestRandomizedTierTransitions:
    """Property suite: random demote/promote/invalidate/pin schedules
    across every ladder must keep values within the tier contract and
    the per-tier accounting reconciled."""

    @pytest.mark.parametrize(
        "tiers", LADDERS, ids=["+".join(t) for t in LADDERS]
    )
    def test_random_schedules_hold_the_contract(self, tiers):
        rng = np.random.default_rng(hash(tiers) % (2**32))
        store = PartialStore(
            num_shards=2,
            capacity_floats=WIDTH * 3,
            tiers=tiers,
            hysteresis=0.9,
        )
        cache = store.acquire("fp")
        universe = np.arange(24)
        pinned: list[int] = []
        # int8 in the ladder loosens the value bound to its documented
        # quantization error; without it float32's rtol governs; pure
        # spill is bit-exact.
        if TIER_INT8 in tiers:
            atol = max(
                int8_error_bound(rows_for(np.array([k]))[0])
                for k in universe
            )
            rtol = FLOAT32_SCORE_RTOL
        elif TIER_FLOAT32 in tiers:
            atol, rtol = 0.0, FLOAT32_SCORE_RTOL
        else:
            atol, rtol = 0.0, 0.0
        for step in range(120):
            op = rng.choice(["get", "invalidate", "pin", "unpin", "sweep"])
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
            elif op == "pin" and len(pinned) < 4:
                key = int(rng.choice(universe))
                cache.pin(np.array([key]))
                pinned.append(key)
            elif op == "unpin" and pinned:
                key = pinned.pop(rng.integers(len(pinned)))
                cache.unpin(np.array([key]))
            elif op == "sweep":
                store.enforce_budget()
            reconcile(cache)
        for key in pinned:
            cache.unpin(np.array([key]))
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
            shard_dropped = sum(
                s.demotions.get("drop", 0) for s in cache.shards
            )
            held = sum(1 for k in seen if k in cache)
            assert held >= len(seen) - shard_dropped
            reconcile(cache)
        store.close()


class TestGovernorHysteresis:
    """A steady-state workload 5% over budget must not invoke the
    governor every batch once hysteresis trims to a low watermark."""

    @staticmethod
    def drive(hysteresis, batches=20):
        store = PartialStore(
            capacity_floats=100, tiers=(), hysteresis=hysteresis
        )
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
        every_batch = self.drive(1.0, batches)
        damped = self.drive(0.9, batches)
        # Without a watermark each 5%-over batch trips the governor.
        assert every_batch == batches
        # Trimming to 90% buys ~2 quiet batches per trip: at most one
        # sweep per two batches, and at least one sweep overall.
        assert 1 <= damped <= batches // 2
        assert damped < every_batch

    def test_sweeps_are_counted_not_rows(self):
        store = PartialStore(capacity_floats=2, hysteresis=1.0)
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
