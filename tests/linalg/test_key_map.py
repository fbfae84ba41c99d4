"""A key index's direct-address map, against its sorted path.

``KeyIndex(keys).addressed()`` — what a relation's ``key_index`` holds
— answers a probe with one ``take`` of a ``key → position`` map when
every key is an integer in ``[0, DIRECT_SPAN)``; any other key set keeps
the sorted ``searchsorted`` path, and so does the BNL join's one-off
``codes_for_keys``.  Key sets are drawn dense, negative, straddling
zero, 2^40 apart, across the span's edge, and grown by ``extended``
(from one domain into another); on every one

* the map exists exactly where the span rule allows it;
* the map path and the sorted path return identical codes, and each
  code is the position of its key;
* a dangling key raises ``ModelError`` on both paths.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.linalg import groupsum
from repro.linalg.groupsum import DIRECT_SPAN, KeyIndex, codes_for_keys
from repro.storage.catalog import Database
from repro.storage.schema import Schema, features, key

UNIVERSE = 40
# Universe index i is key DOMAINS[name](i).
DOMAINS = {
    "dense": lambda i: i,
    "negative": lambda i: -1 - i,
    "straddling": lambda i: i - UNIVERSE // 2,
    "stride": lambda i: i << 40,
    "span_edge": lambda i: DIRECT_SPAN - 4 + i,
}

domains = st.sampled_from(sorted(DOMAINS))
indices = st.lists(st.integers(0, UNIVERSE - 1), unique=True, max_size=24)
probes = st.lists(st.integers(0, UNIVERSE - 1), max_size=16)


def keys_of(domain, where) -> np.ndarray:
    return np.array([DOMAINS[domain](i) for i in where], dtype=np.int64)


def allowed(keys) -> bool:
    return not keys.size or (keys.min() >= 0 and keys.max() < DIRECT_SPAN)


def assert_paths_agree(mapped, plain, keys, probe):
    """Both paths on ``probe``: the same codes where every key is held,
    ``ModelError`` on both where one is not."""
    held = np.isin(probe, keys)
    for subset in (probe[held], probe):
        if np.isin(subset, keys).all():
            codes = mapped.codes(subset)
            np.testing.assert_array_equal(codes, plain.codes(subset))
            assert codes.dtype == np.int64
            np.testing.assert_array_equal(keys[codes], subset)
        else:
            for index in (mapped, plain):
                with pytest.raises(ModelError, match="dangling"):
                    index.codes(subset)


@settings(max_examples=150, deadline=None)
@given(domains, indices, probes)
def test_map_and_sorted_paths_agree(domain, where, probed):
    keys = keys_of(domain, where)
    plain = KeyIndex(keys)
    mapped = plain.addressed()
    assert plain.direct is None
    assert (mapped.direct is not None) == allowed(keys)
    if mapped.direct is not None:
        assert mapped.direct.size == (keys.max() + 1 if keys.size else 0)
    probe = keys_of(domain, probed)
    assert_paths_agree(mapped, plain, keys, probe)
    # A float probe takes the sorted path on both.
    if np.isin(probe, keys).all():
        np.testing.assert_array_equal(
            mapped.codes(probe.astype(np.float64)), plain.codes(probe)
        )


@settings(max_examples=150, deadline=None)
@given(domains, indices, domains, indices, probes)
def test_extended_rebuilds_the_map(base_domain, base, added_domain, added, probed):
    """Appended keys, from the same domain or another one: the grown
    index has a map exactly where the grown key set allows one, and
    answers as a fresh sorted index over every key does."""
    old, new = keys_of(base_domain, base), keys_of(added_domain, added)
    keys = np.concatenate([old, new])
    assume(np.unique(keys).size == keys.size)
    grown = KeyIndex(old).addressed().extended(new)
    assert (grown.direct is not None) == allowed(keys)
    assert KeyIndex(old).extended(new).direct is None
    fresh = KeyIndex(keys)
    probe = np.concatenate([
        keys_of(base_domain, probed), keys_of(added_domain, probed)
    ])
    assert_paths_agree(grown, fresh, keys, probe)


def test_the_span_edge():
    """The largest key a map takes is ``DIRECT_SPAN - 1``."""
    inside = KeyIndex(np.array([3, DIRECT_SPAN - 1])).addressed()
    assert inside.direct is not None and inside.direct.size == DIRECT_SPAN
    assert inside.codes(np.array([DIRECT_SPAN - 1, 3])).tolist() == [1, 0]
    assert KeyIndex(np.array([3, DIRECT_SPAN])).addressed().direct is None
    assert inside.extended(np.array([DIRECT_SPAN])).direct is None


def test_a_repeated_appended_key_is_refused_on_the_map_path():
    index = KeyIndex(np.arange(5)).addressed()
    with pytest.raises(ModelError, match="duplicates"):
        index.extended(np.array([7, 3]))
    with pytest.raises(ModelError, match="duplicates"):
        index.extended(np.array([7, 7]))


def test_an_empty_index_finds_nothing_on_either_path():
    for index in (KeyIndex(np.empty(0, np.int64)),
                  KeyIndex(np.empty(0, np.int64)).addressed()):
        assert index.codes(np.empty(0, np.int64)).size == 0
        with pytest.raises(ModelError, match="dangling"):
            index.codes(np.array([0]))


def test_codes_for_keys_builds_no_map():
    """The BNL join's block-local index answers on the sorted path."""
    keys = np.array([5, 0, 3, 9])
    with mock.patch.object(
        groupsum, "_direct_map", side_effect=AssertionError("map built")
    ):
        codes = codes_for_keys(np.array([9, 9, 0, 3]), keys)
    assert codes.tolist() == [3, 3, 1, 2]


def test_a_relation_index_is_addressed(tmp_path):
    """A dense-keyed relation's index carries the map, one slot per key
    of span, and resolves keys to heap rows through it."""
    db = Database(tmp_path / "db", page_size_bytes=96)
    try:
        keys = np.array([4.0, 0.0, 2.0, 1.0, 3.0])
        db.create_relation(
            "R", Schema([key("rid"), *features("a", 1)]),
            np.column_stack([keys, keys]),
        )
        index = db["R"].key_index()
        assert index.direct is not None and index.direct.size == 5
        assert db["R"].positions_of_keys(np.array([3, 4, 0])).tolist() == [4, 0, 1]
    finally:
        db.close(delete=True)
