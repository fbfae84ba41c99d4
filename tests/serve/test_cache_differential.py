"""Model-based differential test of the array-backed cache.

``tests/serve/reference_cache.py`` is the dict / ``OrderedDict``
``PartialCache`` that PR 16 replaced, kept verbatim as the oracle.
Random schedules of every public operation drive both caches side by
side; after every step the returned rows, the full ``CacheStats`` and
``Residency`` records, the LRU order of the resident tier and the
demotion order of the float32 and spill tiers must be identical, and a
governor sweep must be offered the same keys, rank them the same way
and pick the same victims in the same order.  The offered stamps
themselves are not compared: the oracle stamps one tick per call, the
array cache one fresh stamp per row.  Every ladder is drawn — none,
``float32``, ``spill``, both — each cache over a spill slab of its own
(the oracle spills one row per call, the array cache one block per
sweep), and the array cache's heap file may never hold more rows than
were ever spilled at once: freed positions are recycled before the
file grows.

Each example also draws the key domain its universe maps into: the
dense ``[0, 14)`` a table's direct-address map covers, one straddling
zero (the negative keys take the sorted fallback) and a stride of more
than 2^40 (every key but 0 takes it), so both indexes — and a table
holding keys of both — run against the oracle.

One thing the oracle does is not reproduced, on purpose, and the
schedules steer around it: with repeated keys in one call the oracle
hands ``compute`` the repeats and double-counts a repeated promotion;
repeats are only drawn for ladder-less configurations, and
``compute``'s argument is checked on the new cache alone.
"""

import dataclasses
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fx.store import PartialStore
from repro.fx.tiers import SpillSlab
from repro.serve.cache import PartialCache
from tests.serve import reference_cache

WIDTH = 4
UNIVERSE = 14
# (offset, stride): universe index i is key offset + stride * i.
DOMAINS = {
    "dense": (0, 1),
    "negative": (-(UNIVERSE // 2), 1),
    "sparse": (0, 2**40 + 3),
}


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def rows_for(keys):
    """Key-dependent rows that float32 does not represent exactly."""
    keys = np.asarray(keys, dtype=np.float64)
    return keys[:, None] / 3.0 + np.linspace(0.0, 1.0, WIDTH)[None, :]


key_lists = st.lists(st.integers(0, UNIVERSE - 1), min_size=0, max_size=9)
operations = st.one_of(
    st.tuples(st.just("get"), key_lists),
    st.tuples(st.just("get"), key_lists),
    st.tuples(st.just("invalidate"), key_lists),
    st.tuples(st.just("sweep"), st.integers(1, 6 * WIDTH)),
    st.tuples(st.just("clear"), st.none()),
)
configurations = st.fixed_dictionaries({
    "tiers": st.sampled_from(
        [(), ("float32",), ("spill",), ("float32", "spill")]
    ),
})


def reference_sweep(cache, deficit):
    """The parent's ``PartialStore._sweep`` over one cache."""
    pool = cache.eviction_candidates(deficit)
    offered = [c.key for c in pool]
    pool.sort(key=lambda c: c.rank)
    ranked = [c.key for c in pool]
    victims, freed_total = [], 0
    for candidate in pool:
        freed = cache.evict_if_coldest(candidate.key)
        if freed:
            victims.append(candidate.key)
            freed_total += freed
            if freed_total >= deficit:
                break
    return offered, ranked, victims, freed_total


def array_sweep(cache, deficit):
    """``PartialStore._sweep`` over one cache."""
    keys, ticks, frees = cache.eviction_candidates(deficit)
    rank = np.argsort(ticks)
    cut = np.searchsorted(np.cumsum(frees[rank]), deficit) + 1
    victims = keys[rank[:cut]]
    rows, freed = cache.evict(victims)
    assert rows == victims.size
    return keys.tolist(), keys[rank].tolist(), victims.tolist(), freed


def as_keys(indexes, domain):
    """Universe ``indexes`` as the int64 keys of ``domain``."""
    offset, stride = DOMAINS[domain]
    return offset + stride * np.asarray(indexes, dtype=np.int64)


def assert_same_state(new, old, domain="dense"):
    assert dataclasses.asdict(new.stats()) == dataclasses.asdict(old.stats())
    assert tuple(new.residency()) == tuple(old.residency())
    assert len(new) == len(old)
    assert new.keys("resident") == list(old._rows)
    assert new.keys("float32") == list(old._compressed)
    assert new.keys("spill") == list(old._spilled)
    assert new.keys() == [*old._rows, *old._compressed, *old._spilled]
    assert (new.demotions, new.promotions) == (old.demotions, old.promotions)
    assert (new.hits, new.misses) == (old.hits, old.misses)
    for key in as_keys(range(UNIVERSE), domain).tolist():
        assert (key in new) == (key in old)
        assert new.tier_of(key) == (
            "resident" if key in old._rows
            else "float32" if key in old._compressed
            else "spill" if key in old._spilled
            else None
        )


@settings(max_examples=300, deadline=None)
@given(
    configurations,
    st.lists(operations, min_size=1, max_size=30),
    st.sampled_from(sorted(DOMAINS)),
)
def test_random_schedules_match_the_dict_cache(config, schedule, domain):
    with tempfile.TemporaryDirectory() as root:
        _drive(dict(config), schedule, root, domain)


def _drive(config, schedule, root, domain="dense"):
    spills = "spill" in config["tiers"]
    new = PartialCache(spill_dir=f"{root}/new" if spills else None, **config)
    slab = new._spill
    old = reference_cache.PartialCache(
        clock=reference_cache.AccessClock(),
        spill=SpillSlab(f"{root}/old") if spills else None,
        **config,
    )
    laddered = bool(config["tiers"])
    peak_spilled = 0
    for name, argument in schedule:
        if name == "get":
            keys = as_keys(argument, domain)
            if laddered:
                keys = as_keys(sorted(set(argument)), domain)
            asked = []

            def compute(missing):
                asked.append(missing.copy())
                return rows_for(missing)

            got = new.get_many(keys, compute)
            want = old.get_many(keys, rows_for)
            if keys.size:       # the width of no rows is anyone's guess
                np.testing.assert_array_equal(got, want)
            assert got.shape[0] == want.shape[0]
            for missing in asked:       # distinct, first-occurrence order
                assert missing.tolist() == list(dict.fromkeys(missing.tolist()))
                assert set(missing.tolist()) <= set(keys.tolist())
        elif name == "invalidate":
            keys = as_keys(argument, domain)
            assert new.invalidate(keys) == old.invalidate(keys)
        elif name == "sweep":
            assert array_sweep(new, argument) == reference_sweep(old, argument)
        else:
            new.clear()
            old.clear()
        assert_same_state(new, old, domain)
        peak_spilled = max(peak_spilled, len(new.keys("spill")))
        if spills and WIDTH in slab._heaps:
            assert slab._heaps[WIDTH].nrows <= peak_spilled


def test_promotion_never_evicts_the_batchs_own_rows():
    """A batch that promotes a demoted row and reads a resident one
    gets both: nothing is evicted while the batch runs, and the
    governor's sweep after it stamps the batch's rows newer than any
    other, so it demotes the colder row instead.

    Rows are 16 floats wide, so that one float32 demotion (8 floats)
    covers the trim from 48 floats to the 0.9 watermark of 45 (40)."""

    def wide(keys):
        return np.tile(rows_for(keys), 4)

    store = PartialStore(tiers=("float32",), capacity_floats=45)
    cache = store.acquire("fp")
    cache.get_many(np.array([1, 2]), wide)
    cache.get_many(np.array([3]), wide)              # demotes 1
    assert cache.tier_of(1) == "float32"
    out = cache.get_many(np.array([1, 2]), wide)     # promotes 1, reads 2
    np.testing.assert_allclose(out, wide([1, 2]), rtol=1e-6)
    assert cache.tier_of(1) == "resident" and cache.tier_of(2) == "resident"
    assert cache.tier_of(3) == "float32"             # the sweep's victim
    store.close()


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(), ("float32",), ("float32", "spill")]),
    st.lists(
        st.tuples(
            st.lists(st.integers(0, UNIVERSE - 1), min_size=0, max_size=9),
            st.lists(st.integers(0, 1 << 16), min_size=0, max_size=12),
        ),
        min_size=1, max_size=12,
    ),
    st.sampled_from(sorted(DOMAINS)),
)
def test_rows_in_request_order_are_the_plain_rows_taken(
    tiers, schedule, domain
):
    """``get_many(keys, compute, inverse)`` is ``get_many(keys,
    compute)[inverse]`` — rows ``array_equal``, counters identical —
    over hits, misses and repeated keys, each cache under a store budget
    of its own (6 rows' floats) whose governor demotes or drops rows
    between calls."""
    stores = [
        PartialStore(tiers=tiers, capacity_floats=6 * WIDTH)
        for _ in range(2)
    ]
    fused, plain = (store.acquire("fp") for store in stores)
    for indexes, positions in schedule:
        keys = as_keys(indexes, domain)
        inverse = np.array(positions, dtype=np.intp) % max(keys.size, 1)
        if not keys.size:
            inverse = inverse[:0]
        got = fused.get_many(keys, rows_for, inverse)
        want = plain.get_many(keys, rows_for)[inverse]
        assert got.shape[0] == inverse.size
        if keys.size:
            np.testing.assert_array_equal(got, want)
        assert dataclasses.asdict(fused.stats()) == dataclasses.asdict(
            plain.stats()
        )
    for store in stores:
        store.close()
