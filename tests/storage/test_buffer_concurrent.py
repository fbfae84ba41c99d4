"""Buffer-pool in-flight guards: parallel cold reads, single-flight
coalescing, and invalidation racing an in-flight read.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.storage.buffer import BufferPool
from repro.storage.catalog import Database
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import IOStats
from repro.storage.schema import Schema, features


class GatedHeap(HeapFile):
    """A heap file whose page reads block until the test releases them.

    The gate sits *before* the real read (and before the heap's I/O
    lock), so several gated readers genuinely hold in-flight guards at
    once — the situation the pool must now allow.
    """

    def arm_gate(self):
        self.entered: list[int] = []
        self._entered_lock = threading.Lock()
        self.release_gate = threading.Event()
        self._armed = True

    def read_page(self, page_no):
        if getattr(self, "_armed", False):
            with self._entered_lock:
                self.entered.append(page_no)
            assert self.release_gate.wait(timeout=10.0)
        return super().read_page(page_no)


@pytest.fixture
def gated(tmp_path, rng):
    stats = IOStats()
    heap = GatedHeap.create(
        tmp_path / "g.tbl", 2, page_size_bytes=64, stats=stats
    )  # 4 rows per page
    heap.append(rng.normal(size=(40, 2)))  # 10 pages
    stats.reset()
    return heap


def spin_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:  # pragma: no cover - failure aid
            raise AssertionError("condition never became true")
        time.sleep(0.001)


class TestParallelColdReads:
    def test_distinct_pages_read_concurrently(self, gated):
        pool = BufferPool(8)
        gated.arm_gate()
        results = {}

        def read(page_no):
            results[page_no] = pool.get_page(gated, page_no)

        threads = [
            threading.Thread(target=read, args=(p,)) for p in range(3)
        ]
        for thread in threads:
            thread.start()
        # All three cold misses enter their disk read together — the
        # old pool held one lock across the read and peaked at 1.
        spin_until(lambda: len(gated.entered) == 3)
        assert pool.inflight_peak == 3
        gated.release_gate.set()
        for thread in threads:
            thread.join()
        gated._armed = False
        for page_no in range(3):
            np.testing.assert_array_equal(
                results[page_no], gated.read_page(page_no)
            )
        assert pool.misses == 3

    def test_same_page_is_single_flight(self, gated):
        pool = BufferPool(8)
        gated.arm_gate()
        results = []

        leader = threading.Thread(
            target=lambda: results.append(pool.get_page(gated, 0))
        )
        leader.start()
        spin_until(lambda: len(gated.entered) == 1)
        # The leader is parked inside its read, guard installed: this
        # second reader must coalesce rather than read again.
        follower = threading.Thread(
            target=lambda: results.append(pool.get_page(gated, 0))
        )
        follower.start()
        gated.release_gate.set()
        leader.join()
        follower.join()
        gated._armed = False
        np.testing.assert_array_equal(results[0], results[1])
        assert gated.stats.pages_read == 1      # one disk read total
        assert pool.misses == 1
        assert pool.hits == 1
        assert pool.coalesced_reads == 1

    def test_failed_leader_does_not_poison_followers(self, tmp_path, rng):
        class FlakyHeap(HeapFile):
            fail_once = True

            def read_page(self, page_no):
                if FlakyHeap.fail_once:
                    FlakyHeap.fail_once = False
                    raise OSError("transient read failure")
                return super().read_page(page_no)

        heap = FlakyHeap.create(tmp_path / "f.tbl", 2, page_size_bytes=64)
        heap.append(rng.normal(size=(8, 2)))
        pool = BufferPool(4)
        with pytest.raises(OSError):
            pool.get_page(heap, 0)
        # The guard was cleaned up: the next reader retries fresh.
        np.testing.assert_array_equal(
            pool.get_page(heap, 0), heap.read_page(0)
        )


class InnerGatedHeap(HeapFile):
    """Gates *inside* the heap's I/O lock (unlike :class:`GatedHeap`),
    so overlap here proves the readers-writer lock actually shares."""

    def arm_gate(self):
        self.entered: list[int] = []
        self._entered_lock = threading.Lock()
        self.release_gate = threading.Event()
        self._armed = True

    def _read_row_range_unlocked(self, start, stop, handle):
        if getattr(self, "_armed", False):
            with self._entered_lock:
                self.entered.append(start)
            assert self.release_gate.wait(timeout=10.0)
        return super()._read_row_range_unlocked(start, stop, handle)


class TestHeapReadWriteLock:
    def test_reads_of_one_heap_share_the_io_lock(self, tmp_path, rng):
        heap = InnerGatedHeap.create(
            tmp_path / "rw.tbl", 2, page_size_bytes=64
        )
        data = rng.normal(size=(8, 2))
        heap.append(data)
        heap.arm_gate()
        results = {}

        def read(page_no):
            results[page_no] = heap.read_page(page_no)

        threads = [
            threading.Thread(target=read, args=(p,)) for p in range(2)
        ]
        for thread in threads:
            thread.start()
        # Both reads hold the I/O lock (shared) at once — the old
        # mutex design let exactly one in.
        spin_until(lambda: len(heap.entered) == 2)
        heap.release_gate.set()
        for thread in threads:
            thread.join()
        heap._armed = False
        np.testing.assert_array_equal(results[0], data[:4])
        np.testing.assert_array_equal(results[1], data[4:])

    def test_writer_excludes_in_flight_readers(self, tmp_path, rng):
        heap = InnerGatedHeap.create(
            tmp_path / "rw2.tbl", 2, page_size_bytes=64
        )
        heap.append(rng.normal(size=(4, 2)))
        heap.arm_gate()
        reader = threading.Thread(target=lambda: heap.read_page(0))
        reader.start()
        spin_until(lambda: len(heap.entered) == 1)
        wrote = threading.Event()

        def update():
            heap.update_rows(np.arange(4), np.full((4, 2), 1.25))
            wrote.set()

        writer = threading.Thread(target=update)
        writer.start()
        # The update must wait for the in-flight read (torn-page
        # protection): once it is queued on the I/O lock it has not
        # written ...
        spin_until(lambda: heap._io_lock._writers_waiting == 1)
        assert not wrote.is_set()
        heap.release_gate.set()
        heap._armed = False
        writer.join()
        reader.join()
        # ... and land once the reader drains.
        assert wrote.is_set()
        np.testing.assert_array_equal(
            heap.read_page(0), np.full((4, 2), 1.25)
        )


class TestInvalidationRaces:
    def test_inflight_read_never_caches_stale_bytes(self, gated):
        pool = BufferPool(8)
        gated.arm_gate()
        stale_result = []

        reader = threading.Thread(
            target=lambda: stale_result.append(pool.get_page(gated, 0))
        )
        reader.start()
        spin_until(lambda: len(gated.entered) == 1)
        # While the read is in flight: update the page in place, then
        # invalidate — the exact Database.update_rows cycle.
        gated._armed = False
        new_rows = np.full((4, 2), 7.5)
        gated.update_rows(np.arange(4), new_rows)
        pool.invalidate_pages(gated, [0])
        gated.release_gate.set()
        reader.join()
        # The racing read must not have cached whatever it saw...
        assert pool.stale_discards == 1
        assert len(pool) == 0
        # ...so a read issued after the invalidation sees the update.
        np.testing.assert_array_equal(pool.get_page(gated, 0), new_rows)

    def test_reader_after_invalidate_never_joins_stale_guard(self, gated):
        pool = BufferPool(8)
        gated.arm_gate()
        first = []
        reader = threading.Thread(
            target=lambda: first.append(pool.get_page(gated, 0))
        )
        reader.start()
        spin_until(lambda: len(gated.entered) == 1)
        gated._armed = False
        new_rows = np.full((4, 2), 3.25)
        gated.update_rows(np.arange(4), new_rows)
        pool.invalidate_pages(gated, [0])
        # This get_page starts after invalidate returned: it must read
        # fresh bytes itself, not piggyback on the stale in-flight read
        # (which is still parked on the gate).
        fresh = pool.get_page(gated, 0)
        np.testing.assert_array_equal(fresh, new_rows)
        gated.release_gate.set()
        reader.join()
        # And the parked read's completion did not clobber the cache.
        np.testing.assert_array_equal(pool.get_page(gated, 0), new_rows)

    def test_threaded_update_invalidate_stress(self, tmp_path):
        heap = HeapFile.create(tmp_path / "s.tbl", 2, page_size_bytes=64)
        heap.append(np.zeros((4, 2)))           # one page, value 0
        pool = BufferPool(4)
        published = [0]
        stop = threading.Event()
        errors = []

        def writer():
            try:
                for version in range(1, 60):
                    heap.update_rows(
                        np.arange(4), np.full((4, 2), float(version))
                    )
                    pool.invalidate_pages(heap, [0])
                    published[0] = version
                    time.sleep(0.0005)
            except Exception as error:  # pragma: no cover
                errors.append(error)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    floor = published[0]
                    page = np.asarray(pool.get_page(heap, 0))
                    # Pages are written whole: a read must never be
                    # torn, and never older than the last published
                    # (written + invalidated) version.
                    assert page.min() == page.max(), f"torn page: {page}"
                    assert page.min() >= floor, (
                        f"stale page {page.min()} after invalidation "
                        f"of version {floor}"
                    )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_threaded_update_read_rows_stress(self, tmp_path):
        """``read_rows`` callers race ``Database.update_rows`` on a heap
        of six pages through a pool of four: warm gathers, misses and
        evictions interleave with page invalidations.  Each update
        rewrites one page whole, so a page's rows in a result agree,
        and a read issued after an update returned sees its version."""
        pages, per_page = 6, 4
        db = Database(tmp_path / "db", page_size_bytes=64, buffer_pages=4)
        db.create_relation(
            "R", Schema(features("x", 2)), np.zeros((pages * per_page, 2))
        )
        heap, pool = db.relation("R").heap, db.buffer_pool
        assert heap.rows_per_page == per_page and heap.npages == pages
        published = np.zeros(pages)
        stop = threading.Event()
        errors = []

        def writer():
            rng = np.random.default_rng(0)
            try:
                for version in range(1, 120):
                    page = int(rng.integers(pages))
                    db.update_rows(
                        "R", page * per_page + np.arange(per_page),
                        np.full((per_page, 2), float(version)),
                    )
                    published[page] = version
                    time.sleep(0.0002)
            except Exception as error:  # pragma: no cover
                errors.append(error)
            finally:
                stop.set()

        def reader(seed):
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    positions = rng.integers(0, pages * per_page, size=9)
                    floor = published[positions // per_page]
                    rows = pool.read_rows(heap, positions)
                    assert (rows[:, 0] == rows[:, 1]).all()
                    assert (rows[:, 0] >= floor).all(), (
                        f"stale rows {rows[:, 0]} after versions {floor}"
                    )
                    for page in np.unique(positions // per_page):
                        on_page = rows[positions // per_page == page, 0]
                        assert on_page.min() == on_page.max(), (
                            f"torn page {page}: {on_page}"
                        )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(seed,)) for seed in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)       # switch threads mid-read
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        db.close(delete=True)
        assert not errors
        assert len(pool) <= pool.capacity_pages

    def test_a_short_page_an_append_outran_is_never_cached(self, tmp_path):
        """A read of the heap's short last page completes, then rows are
        appended onto that page before the read is installed (the
        database invalidates the page *before* its append, so the
        read's version check passes): the short copy must not be
        cached, or a later read of a new row would gather a frame slot
        the read never filled."""

        class LateHeap(HeapFile):
            gate = None

            def read_page(self, page_no):
                page = super().read_page(page_no)
                if self.gate is not None:
                    self.read_done.set()
                    assert self.gate.wait(timeout=10.0)
                return page

        heap = LateHeap.create(tmp_path / "l.tbl", 2, page_size_bytes=64)
        heap.append(np.zeros((6, 2)))            # page 1 holds 2 of 4 rows
        pool = BufferPool(4)
        heap.read_done, heap.gate = threading.Event(), threading.Event()
        reader = threading.Thread(target=lambda: pool.get_page(heap, 1))
        reader.start()
        assert heap.read_done.wait(timeout=10.0)
        heap.append(np.full((2, 2), 5.0))        # rows 6, 7 land on page 1
        heap.gate.set()
        reader.join()
        heap.gate = None
        assert pool.stale_discards == 1 and len(pool) == 0
        np.testing.assert_array_equal(
            pool.read_rows(heap, np.array([7, 4])), [[5.0, 5.0], [0.0, 0.0]]
        )


class ParkedAfterRead(HeapFile):
    """A heap file whose page reads, once armed, finish the real read
    and then block before returning: the bytes are taken, not yet
    installed."""

    gate = None

    def read_page(self, page_no):
        page = super().read_page(page_no)
        if self.gate is not None:
            self.read_done.set()
            assert self.gate.wait(timeout=10.0)
        return page


class TestWriteThroughRaces:
    """The write-through twins of :class:`TestInvalidationRaces`.  An
    update writes the heap, then ``write_through`` bumps the touched
    pages' versions and patches the frames holding them — the
    ``Database.update_rows`` cycle — so a miss that began before the
    update never leaves the old bytes resident, whether it is
    discarded or patched."""

    ROWS = np.array([1, 2])            # page 0 of 4-row pages

    def update(self, heap, pool, value):
        new_rows = np.full((self.ROWS.size, 2), value)
        heap.update_rows(self.ROWS, new_rows)
        pool.write_through(heap, self.ROWS, new_rows)
        return new_rows

    def test_a_gated_miss_is_discarded(self, gated):
        pool = BufferPool(8)
        gated.arm_gate()
        reader = threading.Thread(target=lambda: pool.get_page(gated, 0))
        reader.start()
        spin_until(lambda: len(gated.entered) == 1)
        gated._armed = False
        new_rows = self.update(gated, pool, 7.5)
        gated.release_gate.set()
        reader.join()
        assert pool.stale_discards == 1 and len(pool) == 0
        np.testing.assert_array_equal(
            pool.read_rows(gated, self.ROWS), new_rows
        )

    def test_old_bytes_read_before_the_update_are_not_installed(
        self, tmp_path, rng
    ):
        heap = ParkedAfterRead.create(tmp_path / "p.tbl", 2, page_size_bytes=64)
        heap.append(rng.normal(size=(8, 2)))
        old = heap.read_page(0)
        pool = BufferPool(4)
        heap.read_done, heap.gate = threading.Event(), threading.Event()
        got = []
        reader = threading.Thread(target=lambda: got.append(pool.get_page(heap, 0)))
        reader.start()
        assert heap.read_done.wait(timeout=10.0)
        new_rows = self.update(heap, pool, 3.25)
        heap.gate.set()
        reader.join()
        heap.gate = None
        # The read began before the update: its caller gets the old
        # bytes, and the pool keeps none of them.
        np.testing.assert_array_equal(got[0], old)
        assert pool.stale_discards == 1 and len(pool) == 0
        np.testing.assert_array_equal(pool.read_rows(heap, self.ROWS), new_rows)

    def test_old_bytes_installed_before_the_bump_are_patched(
        self, tmp_path, rng
    ):
        """The read takes the old bytes and installs them between the
        heap write and ``write_through``: the frame is resident, and the
        patch makes it current without another read."""
        heap = ParkedAfterRead.create(tmp_path / "p.tbl", 2, page_size_bytes=64)
        heap.append(rng.normal(size=(8, 2)))
        pool = BufferPool(4)
        heap.read_done, heap.gate = threading.Event(), threading.Event()
        reader = threading.Thread(target=lambda: pool.get_page(heap, 0))
        reader.start()
        assert heap.read_done.wait(timeout=10.0)
        new_rows = np.full((self.ROWS.size, 2), 9.5)
        heap.update_rows(self.ROWS, new_rows)
        heap.gate.set()
        reader.join()
        heap.gate = None
        assert pool.resident_pages(heap) == [0]
        pool.write_through(heap, self.ROWS, new_rows)
        assert pool.stale_discards == 0 and pool.resident_pages(heap) == [0]
        np.testing.assert_array_equal(pool.get_page(heap, 0), heap.read_page(0))
        assert pool.misses == 1

    def test_reader_after_write_through_never_joins_stale_guard(self, gated):
        pool = BufferPool(8)
        gated.arm_gate()
        reader = threading.Thread(target=lambda: pool.get_page(gated, 0))
        reader.start()
        spin_until(lambda: len(gated.entered) == 1)
        gated._armed = False
        self.update(gated, pool, 4.75)
        # Starts after write_through returned: it reads the new bytes
        # itself rather than join the read still parked on the gate.
        np.testing.assert_array_equal(pool.get_page(gated, 0), gated.read_page(0))
        gated.release_gate.set()
        reader.join()
        np.testing.assert_array_equal(pool.get_page(gated, 0), gated.read_page(0))
