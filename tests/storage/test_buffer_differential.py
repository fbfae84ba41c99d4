"""Model-based differential test of the buffer pool's frames.

The heap file is the oracle: random schedules of reads through the
pool (``read_rows``, ``get_page``), pool invalidations (``invalidate``,
``invalidate_pages``, ``clear``) and writes through the database
(``update_rows``, which writes through the pool, and ``append_rows``)
drive a pool over two heaps of different widths that share it, and
after every step

* every ``read_rows`` result is ``array_equal`` to
  ``HeapFile.read_rows`` at that moment, and every ``get_page`` result
  to ``HeapFile.read_page``;
* ``hits + misses`` grows by the distinct pages the call touched;
* ``len(pool)`` never exceeds the capacity, and agrees with
  ``resident_pages`` summed over the heaps;
* the pages a call read survive the evictions that call caused (when
  they fit the pool), and loading one page evicts at most one other;
* an update (its positions may repeat: the last row wins) leaves every
  resident page resident, and a read of the updated rows calls
  ``get_page`` for none of the pages that were resident — their frames
  were patched — and equals the heap.

A second schedule checks the recency order against an LRU model at page
granularity (whatever was evicted was read no later than whatever
stayed), and a third that only pages that are not resident reach
``get_page``.

Heaps are 1–20 columns wide over 64 B to 8 KiB pages, with a partial
last page most of the time, and the pool holds fewer pages than a
schedule touches, so eviction runs across both heaps.
"""

import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.buffer import BufferPool
from repro.storage.catalog import Database
from repro.storage.heapfile import HeapFile
from repro.storage.schema import Schema, features

NAMES = ("A", "B")
SPOTS = st.integers(0, 1 << 20)          # a position, taken mod nrows

operations = st.one_of(
    st.tuples(st.just("read"), st.integers(0, 1),
              st.lists(SPOTS, min_size=0, max_size=24)),
    st.tuples(st.just("read"), st.integers(0, 1),
              st.lists(SPOTS, min_size=0, max_size=24)),
    st.tuples(st.just("page"), st.integers(0, 1), SPOTS),
    st.tuples(st.just("invalidate_pages"), st.integers(0, 1),
              st.lists(SPOTS, min_size=0, max_size=4)),
    st.tuples(st.just("invalidate"), st.integers(0, 1), st.none()),
    st.tuples(st.just("clear"), st.integers(0, 1), st.none()),
    # Small spots repeat a position within one update more often.
    st.tuples(st.just("update"), st.integers(0, 1),
              st.lists(st.one_of(SPOTS, st.integers(0, 3)),
                       min_size=1, max_size=6)),
    st.tuples(st.just("append"), st.integers(0, 1), st.integers(1, 40)),
)
heaps = st.tuples(st.integers(1, 20), st.integers(1, 120))


def pages_of(heap, positions) -> set[int]:
    return set((np.asarray(positions) // heap.rows_per_page).tolist())


@settings(max_examples=200, deadline=None)
@given(
    st.integers(64, 8192),
    st.lists(heaps, min_size=2, max_size=2),
    st.integers(1, 6),
    st.lists(operations, min_size=1, max_size=30),
    st.integers(0, 2**32 - 1),
)
def test_random_schedules_match_the_heap(
    page_size, shapes, capacity, schedule, seed
):
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as root:
        db = Database(root, page_size_bytes=page_size, buffer_pages=capacity)
        for name, (ncols, nrows) in zip(NAMES, shapes):
            db.create_relation(
                name, Schema(features("x", ncols)),
                rng.normal(size=(nrows, ncols)),
            )
        try:
            _drive(db, schedule, rng)
        finally:
            db.close(delete=True)


def _drive(db, schedule, rng):
    pool = db.buffer_pool
    for name, which, argument in schedule:
        relation = db.relation(NAMES[which])
        heap = relation.heap
        lookups = pool.hits + pool.misses
        if name == "read":
            positions = np.asarray(argument, dtype=np.int64) % heap.nrows
            got = pool.read_rows(heap, positions)
            np.testing.assert_array_equal(got, heap.read_rows(positions))
            touched = pages_of(heap, positions)
            assert pool.hits + pool.misses - lookups == len(touched)
            if len(touched) <= pool.capacity_pages:
                assert touched <= set(pool.resident_pages(heap))
        elif name == "page":
            page_no = argument % heap.npages
            others = [
                (other, pool.resident_pages(other))
                for other in (db.relation(n).heap for n in NAMES)
            ]
            page = pool.get_page(heap, page_no)
            np.testing.assert_array_equal(page, heap.read_page(page_no))
            assert not page.flags.writeable
            assert pool.hits + pool.misses - lookups == 1
            assert page_no in pool.resident_pages(heap)
            # Loading one page evicts at most one other.
            lost = sum(
                len(set(before) - set(pool.resident_pages(other)))
                for other, before in others
            )
            assert lost <= 1
        elif name == "invalidate_pages":
            pages = [spot % heap.npages for spot in argument]
            pool.invalidate_pages(heap, pages)
            assert not set(pages) & set(pool.resident_pages(heap))
        elif name == "invalidate":
            pool.invalidate(heap)
            assert pool.resident_pages(heap) == []
        elif name == "clear":
            pool.clear()
            assert len(pool) == 0 and pool.hits == pool.misses == 0
        elif name == "update":
            positions = np.asarray(argument) % heap.nrows   # repeats kept
            touched = pages_of(heap, positions)
            if len(touched) <= pool.capacity_pages:
                pool.read_rows(heap, positions)     # as a serving read would
            before = [pool.resident_pages(db.relation(n).heap) for n in NAMES]
            db.update_rows(
                relation.name, positions,
                rng.normal(size=(positions.size, heap.ncols)),
            )
            for n, pages in zip(NAMES, before):
                assert set(pages) <= set(pool.resident_pages(db.relation(n).heap))
            # The updated rows come back from the patched frames, with
            # only the pages that were not resident read from the heap.
            cold = touched - set(before[which])
            with mock.patch.object(
                BufferPool, "get_page", autospec=True,
                side_effect=BufferPool.get_page,
            ) as get_page:
                got = pool.read_rows(heap, positions)
            np.testing.assert_array_equal(got, heap.read_rows(positions))
            assert sorted(call.args[2] for call in get_page.call_args_list) == (
                sorted(cold)
            )
        else:
            db.append_rows(
                relation.name, rng.normal(size=(argument, heap.ncols))
            )
        held = [pool.resident_pages(db.relation(n).heap) for n in NAMES]
        assert len(pool) == sum(map(len, held)) <= pool.capacity_pages
        for n, pages in zip(NAMES, held):
            assert max(pages, default=-1) < db.relation(n).heap.npages


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5),
    st.lists(st.lists(st.integers(0, 39), min_size=1, max_size=8),
             min_size=2, max_size=12),
)
def test_the_most_recent_pages_survive_eviction(capacity, reads):
    """Against an LRU model at page granularity: a call's pages all
    stamp newer than anything read before it, so after every call the
    pool holds its pages (when they fit) and evicted only pages that no
    later call read."""
    with tempfile.TemporaryDirectory() as root:
        heap = HeapFile.create(f"{root}/h.tbl", 2, page_size_bytes=64)
        heap.append(np.arange(80.0).reshape(40, 2))       # 10 pages of 4
        pool = BufferPool(capacity)
        last_read: dict[int, int] = {}
        for call, spots in enumerate(reads):
            positions = np.asarray(spots)
            np.testing.assert_array_equal(
                pool.read_rows(heap, positions), heap.read_rows(positions)
            )
            touched = pages_of(heap, positions)
            for page in touched:
                last_read[page] = call
            resident = set(pool.resident_pages(heap))
            if len(touched) <= capacity:
                assert touched <= resident
            # Whatever was evicted is older than whatever stayed.
            evicted = set(last_read) - resident
            if evicted and resident:
                assert max(last_read[p] for p in evicted) <= min(
                    last_read[p] for p in resident
                )


def test_only_pages_that_are_not_resident_go_through_get_page(tmp_path):
    """A warm read is one gather: no ``get_page`` call at all.  A read
    that misses calls it once per missing page, whatever the number of
    its rows on that page."""
    heap = HeapFile.create(tmp_path / "h.tbl", 2, page_size_bytes=64)
    heap.append(np.arange(80.0).reshape(40, 2))             # 10 pages of 4
    pool = BufferPool(8)
    pool.read_rows(heap, np.arange(16))                     # pages 0-3
    with mock.patch.object(
        BufferPool, "get_page", autospec=True, side_effect=BufferPool.get_page
    ) as get_page:
        warm = np.array([15, 0, 1, 7, 7, 12])
        np.testing.assert_array_equal(
            pool.read_rows(heap, warm), heap.read_rows(warm)
        )
        assert get_page.call_count == 0
        mixed = np.array([3, 20, 21, 22, 39, 4])            # pages 0, 5, 9, 1
        np.testing.assert_array_equal(
            pool.read_rows(heap, mixed), heap.read_rows(mixed)
        )
        assert sorted(call.args[2] for call in get_page.call_args_list) == [5, 9]
    assert (pool.hits, pool.misses) == (3 + 2, 4 + 2)
