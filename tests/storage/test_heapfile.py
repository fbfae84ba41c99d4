"""Paged heap files: geometry, round-trips, I/O accounting."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.heapfile import HeapFile, page_runs, rows_per_page
from repro.storage.iostats import IOStats


class TestRowsPerPage:
    def test_basic(self):
        # 256-byte pages, 4-column float64 rows -> 8 rows per page.
        assert rows_per_page(4, 256) == 8

    def test_wide_row_still_gets_a_page(self):
        assert rows_per_page(1000, 256) == 1

    def test_invalid_ncols(self):
        with pytest.raises(StorageError):
            rows_per_page(0, 256)

    def test_invalid_page_size(self):
        with pytest.raises(StorageError):
            rows_per_page(4, 0)


@pytest.fixture
def heap(tmp_path):
    stats = IOStats()
    return HeapFile.create(
        tmp_path / "t.tbl", 4, page_size_bytes=256, stats=stats
    )


class TestGeometry:
    def test_empty_file(self, heap):
        assert heap.nrows == 0
        assert heap.npages == 0
        assert heap.read_all().shape == (0, 4)

    def test_page_count_rounds_up(self, heap):
        heap.append(np.zeros((9, 4)))  # 8 rows/page -> 2 pages
        assert heap.npages == 2
        assert heap.nrows == 9

    def test_exact_page_boundary(self, heap):
        heap.append(np.zeros((16, 4)))
        assert heap.npages == 2


class TestAppendAndRead:
    def test_round_trip(self, heap, rng):
        data = rng.normal(size=(20, 4))
        heap.append(data)
        np.testing.assert_array_equal(heap.read_all(), data)

    def test_multiple_appends_concatenate(self, heap, rng):
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(7, 4))
        heap.append(a)
        heap.append(b)
        np.testing.assert_array_equal(heap.read_all(), np.vstack([a, b]))

    def test_read_single_page(self, heap, rng):
        data = rng.normal(size=(20, 4))
        heap.append(data)
        np.testing.assert_array_equal(heap.read_page(1), data[8:16])

    def test_last_page_may_be_short(self, heap, rng):
        data = rng.normal(size=(10, 4))
        heap.append(data)
        assert heap.read_page(1).shape == (2, 4)

    def test_read_pages_range(self, heap, rng):
        data = rng.normal(size=(20, 4))
        heap.append(data)
        np.testing.assert_array_equal(heap.read_pages(1, 2), data[8:20])

    def test_read_pages_clips_at_end(self, heap, rng):
        data = rng.normal(size=(10, 4))
        heap.append(data)
        assert heap.read_pages(0, 99).shape == (10, 4)

    def test_read_zero_pages(self, heap):
        heap.append(np.zeros((4, 4)))
        assert heap.read_pages(0, 0).shape == (0, 4)

    def test_page_out_of_range(self, heap):
        heap.append(np.zeros((4, 4)))
        with pytest.raises(StorageError, match="out of range"):
            heap.read_page(5)

    def test_iter_pages_covers_all_rows(self, heap, rng):
        data = rng.normal(size=(19, 4))
        heap.append(data)
        pages = list(heap.iter_pages())
        assert len(pages) == heap.npages
        np.testing.assert_array_equal(np.vstack(pages), data)

    def test_iter_page_blocks(self, heap, rng):
        data = rng.normal(size=(33, 4))
        heap.append(data)
        blocks = list(heap.iter_page_blocks(2))
        assert len(blocks) == 3  # 5 pages in blocks of 2
        np.testing.assert_array_equal(np.vstack(blocks), data)

    def test_a_scan_opens_the_file_once(self, heap, rng, monkeypatch):
        import builtins
        import threading

        from repro.storage import heapfile

        data = rng.normal(size=(70, 4))         # 9 pages
        heap.append(data)
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return builtins.open(*args, **kwargs)

        monkeypatch.setattr(heapfile, "open", counting_open, raising=False)
        for scan, reads in (
            (lambda: heap.iter_page_blocks(2), 5),
            (heap.iter_pages, 9),
        ):
            before = heap.stats.snapshot().pages_read
            opened.clear()
            blocks = list(scan())
            assert len(blocks) == reads and len(opened) == 1
            np.testing.assert_array_equal(np.vstack(blocks), data)
            assert heap.stats.snapshot().pages_read - before == heap.npages
        # No lock is held across a yield: a writer gets in mid-scan, and
        # the scan reads what it wrote through the handle it kept.
        scan = heap.iter_page_blocks(4)
        next(scan)
        replacement = rng.normal(size=(1, 4))
        writer = threading.Thread(
            target=heap.update_rows, args=(np.array([69]), replacement)
        )
        writer.start()
        writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(list(scan)[-1][-1], replacement[0])

    def test_iter_page_blocks_invalid(self, heap):
        with pytest.raises(StorageError):
            list(heap.iter_page_blocks(0))

    def test_wrong_width_rejected(self, heap):
        with pytest.raises(StorageError, match="width"):
            heap.append(np.zeros((3, 5)))

    def test_one_dim_rejected(self, heap):
        with pytest.raises(StorageError):
            heap.append(np.zeros(4))

    def test_empty_append_is_noop(self, heap):
        heap.append(np.zeros((0, 4)))
        assert heap.nrows == 0
        assert heap.stats.pages_written == 0


class TestIOAccounting:
    def test_append_counts_pages_written(self, heap):
        heap.append(np.zeros((16, 4)))  # 2 full pages
        assert heap.stats.pages_written == 2

    def test_read_page_counts_one(self, heap):
        heap.append(np.zeros((16, 4)))
        before = heap.stats.pages_read
        heap.read_page(0)
        assert heap.stats.pages_read == before + 1

    def test_read_all_counts_every_page(self, heap):
        heap.append(np.zeros((20, 4)))  # 3 pages
        before = heap.stats.pages_read
        heap.read_all()
        assert heap.stats.pages_read == before + 3

    def test_partial_page_rewrite_charged(self, heap):
        heap.append(np.zeros((4, 4)))   # half a page
        heap.append(np.zeros((4, 4)))   # completes the same page
        # 1 page for first append + 1 page (read-modify-write) second.
        assert heap.stats.pages_written == 2


class TestOneOpenPerCall:
    """``read_rows`` / ``update_rows`` over many pages open the file
    once per call — the handle is passed down to the per-page reads —
    and charge exactly the pages they touch, as before."""

    @pytest.fixture
    def opens(self, heap, monkeypatch):
        import builtins

        heap.append(np.arange(64 * 4, dtype=np.float64).reshape(64, 4))
        calls = []
        real_open = builtins.open

        def counting_open(path, *args, **kwargs):
            if str(path) == str(heap.path):
                calls.append(args[0] if args else kwargs.get("mode", "r"))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        return calls

    # One row on each of pages 0, 2, 3, 5, 7, and a second on page 0.
    POSITIONS = np.array([57, 3, 20, 41, 5, 29])

    def test_read_rows_opens_once_and_charges_each_page_once(self, heap, opens):
        before = heap.stats.snapshot()
        out = heap.read_rows(self.POSITIONS)
        np.testing.assert_array_equal(out[:, 0], self.POSITIONS * 4.0)
        assert opens == ["rb"]
        delta = heap.stats.snapshot() - before
        assert (delta.pages_read, delta.pages_written) == (5, 0)

    def test_update_rows_opens_once_and_charges_each_page_once(self, heap, opens):
        before = heap.stats.snapshot()
        heap.update_rows(self.POSITIONS, np.full((6, 4), -1.0))
        assert opens == ["r+b"]
        delta = heap.stats.snapshot() - before
        assert (delta.pages_read, delta.pages_written) == (5, 5)
        del opens[:]
        data = heap.read_all()
        changed = np.zeros(64, dtype=bool)
        changed[self.POSITIONS] = True
        np.testing.assert_array_equal(data[changed], np.full((6, 4), -1.0))
        np.testing.assert_array_equal(
            data[~changed, 0], np.flatnonzero(~changed) * 4.0
        )


class TestPageRuns:
    """``page_runs`` cuts heap positions into one slice per touched
    page; a reader built on it returns what the mask-per-page loop it
    replaces returned."""

    @staticmethod
    def masked(positions, per_page):
        """The replaced loop: one mask over every position per page."""
        pages = positions // per_page
        return [
            (int(page_no), np.flatnonzero(pages == page_no))
            for page_no in np.unique(pages)
        ]

    @pytest.mark.parametrize("positions", [
        [57, 3, 20, 41, 5, 29],             # unsorted, two on page 0
        [9, 9, 2, 9, 63, 2],                # duplicates
        [12, 8, 15, 8],                     # a single page
        [40],
        list(range(64)),
        list(range(63, -1, -1)),
    ], ids=["unsorted", "duplicates", "one page", "one row", "scan", "reversed"])
    def test_runs_are_the_per_page_masks(self, positions):
        positions = np.asarray(positions)
        runs = list(page_runs(positions, 8))
        expected = self.masked(positions, 8)
        assert [page_no for page_no, _, _ in runs] == [p for p, _ in expected]
        assert all(type(page_no) is int for page_no, _, _ in runs)
        for (page_no, where, slots), (_, mask) in zip(runs, expected):
            np.testing.assert_array_equal(where, mask)
            np.testing.assert_array_equal(slots, positions[mask] - page_no * 8)

    def test_no_positions_no_runs(self):
        assert list(page_runs(np.empty(0, dtype=np.int64), 8)) == []


class TestPersistence:
    def test_reopen_preserves_rows(self, tmp_path, rng):
        stats = IOStats()
        heap = HeapFile.create(
            tmp_path / "p.tbl", 3, page_size_bytes=256, stats=stats
        )
        data = rng.normal(size=(10, 3))
        heap.append(data)
        reopened = HeapFile.open(tmp_path / "p.tbl", stats=stats)
        assert reopened.nrows == 10
        assert reopened.ncols == 3
        np.testing.assert_array_equal(reopened.read_all(), data)

    def test_open_missing_raises(self, tmp_path):
        with pytest.raises(StorageError, match="metadata"):
            HeapFile.open(tmp_path / "missing.tbl")

    def test_delete_removes_files(self, tmp_path):
        heap = HeapFile.create(tmp_path / "d.tbl", 2)
        heap.append(np.zeros((2, 2)))
        heap.delete()
        assert not heap.path.exists()
        assert not heap.meta_path.exists()
        assert heap.nrows == 0
