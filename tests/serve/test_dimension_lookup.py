"""``DimensionLookup``: keys sorted once, rows read by page run.

The reference is the loop the lookup replaced — ``codes_for_keys``
against the scanned key column, then one mask over every position per
touched page — and the rows must be ``array_equal`` to it for unsorted,
repeated and single-page key sets, through the buffer pool and without.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.linalg.groupsum import codes_for_keys
from repro.serve.partials import DimensionLookup
from repro.storage.schema import Schema, features, key

N_ROWS, WIDTH = 90, 3           # 256-byte pages hold 8 rows of 4 floats


@pytest.fixture
def relation(tiny_db, rng):
    keys = rng.permutation(N_ROWS) * 7 + 100    # heap order ≠ key order
    rows = np.column_stack([keys, rng.normal(size=(N_ROWS, WIDTH))])
    return tiny_db.create_relation(
        "R", Schema([key("rid"), *features("a", WIDTH)]), rows
    )


def masked_features_for(relation, keys):
    positions = codes_for_keys(np.asarray(keys), relation.keys())
    heap = relation.heap
    pages = positions // heap.rows_per_page
    slots = positions % heap.rows_per_page
    rows = np.empty((positions.size, relation.schema.width))
    for page_no in np.unique(pages):
        mask = pages == page_no
        rows[mask] = heap.read_page(int(page_no))[slots[mask]]
    return relation.project_features(rows)


@pytest.mark.parametrize("pooled", [False, True], ids=["heap", "pool"])
@pytest.mark.parametrize("pick", [
    lambda keys, rng: rng.permutation(keys),                # every page
    lambda keys, rng: rng.choice(keys, size=40),            # repeats
    lambda keys, rng: keys[8:16][[5, 0, 5, 7, 2]],          # one page
    lambda keys, rng: keys[:1],
    lambda keys, rng: keys[:0],
], ids=["unsorted", "duplicates", "one page", "one key", "no key"])
def test_rows_equal_the_mask_per_page_loop(tiny_db, relation, rng, pick, pooled):
    lookup = DimensionLookup(
        relation, buffer_pool=tiny_db.buffer_pool if pooled else None
    )
    wanted = pick(relation.keys(), rng)
    np.testing.assert_array_equal(
        lookup.row_positions(wanted), codes_for_keys(wanted, relation.keys())
    )
    np.testing.assert_array_equal(
        lookup.features_for(wanted), masked_features_for(relation, wanted)
    )


def test_each_touched_page_is_fetched_once(tiny_db, relation):
    lookup = DimensionLookup(relation)
    wanted = relation.keys()[[0, 9, 1, 80, 10, 0]]      # pages 0, 1, 10
    before = tiny_db.stats.snapshot().pages_read
    lookup.features_for(wanted)
    assert tiny_db.stats.snapshot().pages_read - before == 3


def test_a_dangling_key_is_named(relation):
    lookup = DimensionLookup(relation)
    with pytest.raises(ModelError, match=r"dangling foreign keys.*\[3, 5\]"):
        lookup.features_for(np.array([100, 5, 3, 107]))


def test_repeated_keys_are_refused_at_construction(tiny_db):
    rows = np.column_stack([[4.0, 9.0, 4.0], np.zeros((3, 2))])
    twice = tiny_db.create_relation(
        "D", Schema([key("rid"), *features("a", 2)]), rows
    )
    with pytest.raises(ModelError, match="duplicates"):
        DimensionLookup(twice)
