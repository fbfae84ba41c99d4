"""Model-based differential test of the array-backed cache.

``tests/serve/reference_cache.py`` is the dict / ``OrderedDict``
``PartialCache`` that PR 16 replaced, kept verbatim as the oracle.
Random schedules of every public operation drive both caches side by
side; after every step the returned rows, the full ``CacheStats`` and
``Residency`` records, the LRU order of the resident tier and the
demotion order of the float32 and spill tiers must be identical, and a
governor sweep must pick the same victims in the same order.  Every
ladder is drawn — none, ``float32``, ``spill``, both — each cache over
a spill slab of its own (the oracle spills one row per call, the array
cache one block per sweep), and the array cache's heap file may never
hold more rows than were ever spilled at once: freed positions are
recycled before the file grows.

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
from repro.serve.cache import AccessClock, PartialCache
from tests.serve import reference_cache

WIDTH = 4
UNIVERSE = 14


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
    "admission": st.sampled_from(["lru", "tinylfu"]),
    "clock": st.booleans(),
    "tiers": st.sampled_from(
        [(), ("float32",), ("spill",), ("float32", "spill")]
    ),
})


def reference_sweep(cache, deficit):
    """The parent's ``PartialStore._sweep`` over one cache."""
    pool = cache.eviction_candidates(deficit)
    offered = [(c.key, c.tick, c.frequency) for c in pool]
    pool.sort(key=lambda c: c.rank)
    victims, freed_total = [], 0
    for candidate in pool:
        freed = cache.evict_if_coldest(candidate.key)
        if freed:
            victims.append(candidate.key)
            freed_total += freed
            if freed_total >= deficit:
                break
    return offered, victims, freed_total


def array_sweep(cache, deficit):
    """``PartialStore._sweep`` over one cache."""
    keys, ticks, frequencies, frees = cache.eviction_candidates(deficit)
    offered = list(zip(keys.tolist(), ticks.tolist(), frequencies.tolist()))
    rank = np.lexsort((ticks, frequencies))
    cut = np.searchsorted(np.cumsum(frees[rank]), deficit) + 1
    victims = keys[rank[:cut]]
    rows, freed = cache.evict(victims)
    assert rows == victims.size
    return offered, victims.tolist(), freed


def assert_same_state(new, old):
    assert dataclasses.asdict(new.stats()) == dataclasses.asdict(old.stats())
    assert tuple(new.residency()) == tuple(old.residency())
    assert len(new) == len(old)
    assert new.keys("resident") == list(old._rows)
    assert new.keys("float32") == list(old._compressed)
    assert new.keys("spill") == list(old._spilled)
    assert new.keys() == [*old._rows, *old._compressed, *old._spilled]
    assert (new.demotions, new.promotions) == (old.demotions, old.promotions)
    assert (new.hits, new.misses) == (old.hits, old.misses)
    for key in range(UNIVERSE):
        assert (key in new) == (key in old)
        assert new.tier_of(key) == (
            "resident" if key in old._rows
            else "float32" if key in old._compressed
            else "spill" if key in old._spilled
            else None
        )


@settings(max_examples=300, deadline=None)
@given(configurations, st.lists(operations, min_size=1, max_size=30))
def test_random_schedules_match_the_dict_cache(config, schedule):
    with tempfile.TemporaryDirectory() as root:
        _drive(dict(config), schedule, root)


def _drive(config, schedule, root):
    clocked = config.pop("clock")
    spills = "spill" in config["tiers"]
    new = PartialCache(
        clock=AccessClock() if clocked else None,
        spill_dir=f"{root}/new" if spills else None,
        **config,
    )
    slab = new._spill
    old = reference_cache.PartialCache(
        clock=reference_cache.AccessClock() if clocked else None,
        spill=SpillSlab(f"{root}/old") if spills else None,
        **config,
    )
    laddered = bool(config["tiers"])
    peak_spilled = 0
    for name, argument in schedule:
        if name == "get":
            keys = np.array(argument, dtype=np.int64)
            if laddered:
                keys = np.array(sorted(set(argument)), dtype=np.int64)
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
            keys = np.array(argument, dtype=np.int64)
            assert new.invalidate(keys) == old.invalidate(keys)
        elif name == "sweep":
            assert array_sweep(new, argument) == reference_sweep(old, argument)
        else:
            new.clear()
            old.clear()
        assert_same_state(new, old)
        peak_spilled = max(peak_spilled, len(new.keys("spill")))
        if spills and WIDTH in slab._heaps:
            assert slab._heaps[WIDTH].nrows <= peak_spilled


def test_promotion_never_evicts_the_batchs_own_rows():
    """A batch that promotes a demoted row and reads a resident one
    gets both: nothing is evicted while the batch runs, and the
    governor's sweep after it stamps the batch's rows newer than any
    other, so it demotes the colder row instead."""
    store = PartialStore(tiers=("float32",), capacity_floats=2 * WIDTH + 2)
    cache = store.acquire("fp")
    cache.get_many(np.array([1, 2]), rows_for)
    cache.get_many(np.array([3]), rows_for)          # demotes 1
    assert cache.tier_of(1) == "float32"
    out = cache.get_many(np.array([1, 2]), rows_for)  # promotes 1, reads 2
    np.testing.assert_allclose(out, rows_for([1, 2]), rtol=1e-6)
    assert cache.tier_of(1) == "resident" and cache.tier_of(2) == "resident"
    assert cache.tier_of(3) == "float32"             # the sweep's victim
    store.close()
