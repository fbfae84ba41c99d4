"""Heap row positions are checked the same way at every entry point.

``BufferPool.read_rows``, ``HeapFile.read_rows``, ``HeapFile.update_rows``
and ``Database.update_rows`` take integer positions, or floats that are
exactly integral, inside ``[0, nrows)``.  Anything else raises
``StorageError`` naming the first bad position: a fractional position is
never truncated onto the row below it, and a position past the last row
never reads an unwritten slot of a resident page.
"""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Database
from repro.storage.heapfile import HeapFile, checked_positions
from repro.storage.schema import Schema, features

NROWS = 100
BAD = [
    pytest.param(-1, "-1", id="negative"),
    pytest.param(NROWS, str(NROWS), id="nrows"),
    pytest.param(300, "300", id="past-the-last-page"),
    pytest.param(5.7, "5.7", id="fractional"),
    pytest.param(float("nan"), "nan", id="nan"),
]


@pytest.fixture
def heap(tmp_path):
    heap = HeapFile.create(tmp_path / "p.tbl", 2, page_size_bytes=4096)
    heap.append(np.arange(2 * NROWS, dtype=np.float64).reshape(NROWS, 2))
    assert heap.rows_per_page == 256 and heap.npages == 1
    return heap


def warm_pool(heap):
    pool = BufferPool(4)
    pool.read_rows(heap, np.arange(NROWS))       # the one page is resident
    return pool


def entry_points(heap, tmp_path):
    db = Database(tmp_path / "db", page_size_bytes=4096)
    db.create_relation("R", Schema(features("x", 2)), heap.read_all())
    pool = warm_pool(heap)
    return {
        "BufferPool.read_rows": lambda p: pool.read_rows(heap, p),
        "HeapFile.read_rows": heap.read_rows,
        "HeapFile.update_rows": lambda p: heap.update_rows(
            p, np.zeros((np.size(p), 2))
        ),
        "Database.update_rows": lambda p: db.update_rows(
            "R", p, np.zeros((np.size(p), 2))
        ),
    }


@pytest.mark.parametrize("bad, shown", BAD)
def test_every_entry_point_refuses_a_bad_position(heap, tmp_path, bad, shown):
    before = heap.read_all()
    for name, call in entry_points(heap, tmp_path).items():
        positions = np.array([3, bad, 7])
        with pytest.raises(StorageError, match=f"positions.*{shown}"):
            call(positions)
    # Nothing was overwritten on the way to the refusal.
    np.testing.assert_array_equal(heap.read_all(), before)


def test_integral_floats_and_every_integer_dtype_are_taken(heap):
    pool = warm_pool(heap)
    want = heap.read_rows(np.array([5, 99, 0]))
    for positions in (
        np.array([5.0, 99.0, 0.0]), np.array([5, 99, 0], dtype=np.uint8),
        np.array([5, 99, 0], dtype=np.int32), [5, 99, 0],
    ):
        np.testing.assert_array_equal(pool.read_rows(heap, positions), want)
        np.testing.assert_array_equal(heap.read_rows(positions), want)


def test_a_fractional_update_writes_nothing(heap):
    with pytest.raises(StorageError, match="5.7"):
        heap.update_rows(np.array([5.7]), np.full((1, 2), -1.0))
    np.testing.assert_array_equal(heap.read_rows(np.array([5]))[0], [10, 11])


def test_non_numeric_positions_are_refused():
    with pytest.raises(StorageError, match="dtype bool"):
        checked_positions(np.array([True, False]), 10)
    assert checked_positions([], 10).dtype == np.int64
    assert checked_positions(np.array([[1], [2]]), 10).tolist() == [1, 2]


def test_a_pool_read_past_an_append_never_serves_an_unwritten_slot(heap):
    """The heap's one page is resident short (100 of 256 rows); an
    append straight to the heap file fills more of it behind the pool's
    back, and the next read sees the new rows, not the frame's slack."""
    pool = warm_pool(heap)
    heap.append(np.full((5, 2), 7.0))
    np.testing.assert_array_equal(
        pool.read_rows(heap, np.array([0, 104])), heap.read_rows([0, 104])
    )
    assert pool.stats().resident_pages == 1
