"""One recency stamp per charged row, across every cache of a store.

The governor ranks its victim pool by stamp alone, with no tie-break,
so two things must hold after any schedule: no two charged rows
(resident or float32) of one store share a stamp, and within a cache
every float32 row — which keeps the stamp it had while resident — is
older than every resident row.  Together they make stamp order the
old "demoted before resident, then touch order" rule.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fx.store import PartialStore

WIDTH = 4
UNIVERSE = 12


def rows_for(keys):
    return keys[:, None] / 3.0 + np.linspace(0.0, 1.0, WIDTH)[None, :]


def stamps(table):
    return table.tick[table.slots]


key_lists = st.lists(st.integers(0, UNIVERSE - 1), min_size=0, max_size=8)
operations = st.one_of(
    st.tuples(st.just("get"), st.integers(0, 1), key_lists),
    st.tuples(st.just("get"), st.integers(0, 1), key_lists),
    st.tuples(st.just("invalidate"), st.integers(0, 1), key_lists),
    st.tuples(
        st.just("set_budget"), st.none(),
        st.one_of(st.none(), st.integers(1, 12 * WIDTH)),
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(operations, min_size=1, max_size=30))
def test_charged_stamps_are_distinct_and_demoted_ones_oldest(schedule):
    store = PartialStore(tiers=("float32", "spill"))
    caches = [store.acquire("fp-a"), store.acquire("fp-b")]
    try:
        for name, which, argument in schedule:
            if name == "get":
                keys = np.array(argument, dtype=np.int64)
                caches[which].get_many(keys, rows_for)
            elif name == "invalidate":
                caches[which].invalidate(np.array(argument, dtype=np.int64))
            else:
                store.set_budget(argument)
            charged = []
            for cache in caches:
                resident = stamps(cache._table)
                compressed = stamps(cache._compressed)
                if resident.size and compressed.size:
                    assert compressed.max() < resident.min()
                charged.extend([resident, compressed])
            charged = np.concatenate(charged)
            assert np.unique(charged).size == charged.size
    finally:
        store.close()
