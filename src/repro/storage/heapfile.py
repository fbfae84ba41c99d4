"""On-disk paged heap files.

A heap file stores a fixed-width table of ``float64`` values row-major in
a single binary file, logically divided into pages of
``page_size_bytes``.  Reads and writes happen at page granularity and are
recorded in an :class:`~repro.storage.iostats.IOStats`, which is what
makes the paper's I/O cost formulas (Section V-A) observable.

A small JSON sidecar (``<name>.meta.json``) persists the row width, row
count and page size so files can be reopened across processes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.core.sync import ReadWriteLock
from repro.errors import StorageError
from repro.storage.iostats import IOStats

DEFAULT_PAGE_SIZE_BYTES = 8192
_FLOAT_BYTES = 8


def rows_per_page(ncols: int, page_size_bytes: int = DEFAULT_PAGE_SIZE_BYTES) -> int:
    """How many ``ncols``-wide float64 rows fit in one page.

    A row wider than a page still occupies (at least) one page; we never
    split a row across pages, matching the usual slotted-page simplification.
    """
    if ncols <= 0:
        raise StorageError(f"row width must be positive, got {ncols}")
    if page_size_bytes <= 0:
        raise StorageError(f"page size must be positive, got {page_size_bytes}")
    return max(1, page_size_bytes // (ncols * _FLOAT_BYTES))


def checked_positions(positions, nrows: int) -> np.ndarray:
    """``positions`` as int64 heap row numbers, or :class:`StorageError`
    naming the first bad one.  An integer dtype is taken as it is; a
    float only where every value is exactly integral, so 5.7 or NaN is
    refused rather than truncated to a row nobody asked for.  Every
    value must lie in ``[0, nrows)``."""
    positions = np.asarray(positions).ravel()
    kind = positions.dtype.kind
    if kind not in "iuf":
        raise StorageError(
            f"row positions must be integers, got dtype {positions.dtype}"
        )
    if not positions.size:
        return positions.astype(np.int64)
    if kind == "f":
        bad = ~((positions >= 0) & (positions < nrows)
                & (positions == np.floor(positions)))
    elif positions.min() < 0 or positions.max() >= nrows:
        bad = (positions < 0) | (positions >= nrows)
    else:
        return positions.astype(np.int64, copy=False)
    if bad.any():
        raise StorageError(
            f"row positions must be integers in [0, {nrows}); got "
            f"{positions[bad][0].item()!r}"
        )
    return positions.astype(np.int64)


def page_runs(positions: np.ndarray, rows_per_page: int):
    """Yield ``(page_no, where, slots)`` per page the heap ``positions``
    touch, ascending: ``positions[where]`` lie on that page, in their
    given order, at its rows ``slots``.  One sort and a slice per page,
    not a mask over every position per page."""
    if positions.size == 0:
        return
    pages = positions // rows_per_page
    order = np.argsort(pages, kind="stable")
    pages = pages[order]
    slots = positions[order] - pages * rows_per_page
    starts = np.flatnonzero(np.append(True, pages[1:] != pages[:-1]))
    stops = np.append(starts[1:], order.size).tolist()
    for page_no, a, b in zip(pages[starts].tolist(), starts.tolist(), stops):
        yield page_no, order[a:b], slots[a:b]


class HeapFile:
    """A paged file of fixed-width float64 rows.

    Rows are appended at the end and may be overwritten in place
    (:meth:`update_rows`); there is no delete or compaction.

    ``page_size_bytes`` fixes the I/O granularity (every read/write is
    charged in whole pages to ``stats``, an
    :class:`~repro.storage.iostats.IOStats` shared across a database's
    relations under ``stats_name``); ``rows_per_page`` follows from it
    and the row width.  An internal readers-writer lock lets any
    number of concurrent reads share the file (each opens its own
    handle, so the buffer pool's parallel cold misses genuinely
    overlap their I/O) while in-place writes take it exclusively — a
    concurrent reader can never observe a torn (half-written) page,
    the page-level atomicity that both the pool's in-flight cold reads
    and the serving runtime's invalidation story build on.  The lock
    covers single calls only: cross-page consistency during an update
    cycle is the :class:`~repro.storage.catalog.Database` update
    lock's job.
    """

    def __init__(
        self,
        path: str | Path,
        ncols: int,
        *,
        page_size_bytes: int = DEFAULT_PAGE_SIZE_BYTES,
        stats: IOStats | None = None,
        stats_name: str | None = None,
    ) -> None:
        self.path = Path(path)
        self.ncols = int(ncols)
        self.page_size_bytes = int(page_size_bytes)
        self.rows_per_page = rows_per_page(self.ncols, self.page_size_bytes)
        self.stats = stats if stats is not None else IOStats()
        self.stats_name = stats_name or self.path.stem
        self._nrows = 0
        # Readers share, writers exclude: a concurrent reader can never
        # observe a torn (half-written) page — the invariant the
        # serving runtime's invalidation story rests on — while reads
        # of different pages run their I/O in parallel.
        # Readers each open their own file handle, so concurrent page
        # reads are safe; the only hazard is a read overlapping an
        # in-place write (torn page).  The RW lock keeps exactly that
        # exclusion without serializing the buffer pool's parallel
        # cold misses the way a plain mutex would.
        self._io_lock = ReadWriteLock()

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        ncols: int,
        *,
        page_size_bytes: int = DEFAULT_PAGE_SIZE_BYTES,
        stats: IOStats | None = None,
        stats_name: str | None = None,
    ) -> "HeapFile":
        """Create an empty heap file, overwriting any existing one."""
        heap = cls(
            path,
            ncols,
            page_size_bytes=page_size_bytes,
            stats=stats,
            stats_name=stats_name,
        )
        heap.path.parent.mkdir(parents=True, exist_ok=True)
        with open(heap.path, "wb"):
            pass
        heap._write_meta()
        return heap

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        stats: IOStats | None = None,
        stats_name: str | None = None,
    ) -> "HeapFile":
        """Open an existing heap file from its sidecar metadata."""
        path = Path(path)
        meta_path = cls._meta_path_for(path)
        if not meta_path.exists():
            raise StorageError(f"no heap file metadata at {meta_path}")
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        heap = cls(
            path,
            meta["ncols"],
            page_size_bytes=meta["page_size_bytes"],
            stats=stats,
            stats_name=stats_name,
        )
        heap._nrows = meta["nrows"]
        return heap

    @staticmethod
    def _meta_path_for(path: Path) -> Path:
        return path.with_suffix(path.suffix + ".meta.json")

    @property
    def meta_path(self) -> Path:
        return self._meta_path_for(self.path)

    def _write_meta(self) -> None:
        payload = {
            "ncols": self.ncols,
            "nrows": self._nrows,
            "page_size_bytes": self.page_size_bytes,
        }
        with open(self.meta_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    def delete(self) -> None:
        """Remove the heap file and its metadata from disk."""
        for path in (self.path, self.meta_path):
            if path.exists():
                os.remove(path)
        self._nrows = 0

    # -- geometry ------------------------------------------------------------

    @property
    def nrows(self) -> int:
        """Rows currently stored (appends only ever grow this)."""
        return self._nrows

    @property
    def npages(self) -> int:
        """Number of pages currently occupied (ceil division)."""
        if self._nrows == 0:
            return 0
        return -(-self._nrows // self.rows_per_page)

    def _page_row_range(self, page_no: int) -> tuple[int, int]:
        if page_no < 0 or page_no >= self.npages:
            raise StorageError(
                f"page {page_no} out of range [0, {self.npages})"
            )
        start = page_no * self.rows_per_page
        stop = min(start + self.rows_per_page, self._nrows)
        return start, stop

    # -- writes ----------------------------------------------------------

    def append(self, rows: np.ndarray) -> None:
        """Append a 2-D array of rows, accounting one write per page touched.

        The last partially-filled page, if any, is counted again on the
        next append (read-modify-write), which mirrors real page I/O.
        """
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise StorageError(f"expected 2-D rows, got shape {rows.shape}")
        if rows.shape[1] != self.ncols:
            raise StorageError(
                f"row width {rows.shape[1]} != heap width {self.ncols}"
            )
        if rows.shape[0] == 0:
            return
        first_page = self._nrows // self.rows_per_page
        with self._io_lock.write():
            with open(self.path, "ab") as handle:
                rows.tofile(handle)
        self._nrows += rows.shape[0]
        last_page = (self._nrows - 1) // self.rows_per_page
        self.stats.record_write(self.stats_name, last_page - first_page + 1)
        self._write_meta()

    def update_rows(self, positions: np.ndarray, rows: np.ndarray) -> None:
        """Overwrite existing rows in place, page-at-a-time.

        ``positions`` are heap row numbers; ``rows`` supplies one
        replacement row per position.  Each touched page pays one read
        (the untouched rows must be preserved) and one write — the
        standard read-modify-write cycle, visible to the I/O accounting
        like every other page access.
        """
        positions = np.asarray(positions).ravel()
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.ncols:
            raise StorageError(
                f"replacement rows must be (n, {self.ncols}), "
                f"got {rows.shape}"
            )
        if rows.shape[0] != positions.size:
            raise StorageError(
                f"{positions.size} positions but {rows.shape[0]} rows"
            )
        positions = checked_positions(positions, self._nrows)
        if positions.size == 0:
            return
        runs = list(page_runs(positions, self.rows_per_page))
        with self._io_lock.write():
            with open(self.path, "r+b") as handle:
                for page_no, where, slots in runs:
                    start, stop = self._page_row_range(page_no)
                    page = self._read_row_range_unlocked(start, stop, handle)
                    page[slots] = rows[where]
                    handle.seek(start * self.ncols * _FLOAT_BYTES)
                    page.tofile(handle)
        self.stats.record_read(self.stats_name, len(runs))
        self.stats.record_write(self.stats_name, len(runs))

    # -- reads -------------------------------------------------------------

    def read_rows(self, positions: np.ndarray) -> np.ndarray:
        """Read individual rows by heap position, page-at-a-time.

        ``positions`` are heap row numbers in any order; the result has
        one row per position, aligned.  Positions sharing a page pay for
        that page once — the point-probe mirror of :meth:`update_rows`'s
        write side, and what makes a batch of spilled-partial fetches
        cost sequential page reads rather than per-row seeks.
        """
        positions = checked_positions(positions, self._nrows)
        out = np.empty((positions.size, self.ncols))
        if positions.size == 0:
            return out
        runs = list(page_runs(positions, self.rows_per_page))
        with self._io_lock.read(), open(self.path, "rb") as handle:
            for page_no, where, slots in runs:
                start, stop = self._page_row_range(page_no)
                page = self._read_row_range_unlocked(start, stop, handle)
                out[where] = page[slots]
        self.stats.record_read(self.stats_name, len(runs))
        return out

    def read_page(self, page_no: int) -> np.ndarray:
        """Read one page, returning its rows as a 2-D array.

        Charged as one page read.  Point probes should normally go
        through :meth:`BufferPool.get_page
        <repro.storage.buffer.BufferPool.get_page>` instead, which
        only reaches here on a cold miss (and lets concurrent cold
        misses for different pages run this read in parallel).
        """
        start, stop = self._page_row_range(page_no)
        data = self._read_row_range(start, stop)
        self.stats.record_read(self.stats_name, 1)
        return data

    def read_pages(self, first_page: int, npages: int, handle=None) -> np.ndarray:
        """Read ``npages`` consecutive pages starting at ``first_page``
        (through a scan's open ``handle``, where it has one)."""
        if npages <= 0:
            return np.empty((0, self.ncols))
        last = min(first_page + npages, self.npages) - 1
        start, _ = self._page_row_range(first_page)
        _, stop = self._page_row_range(last)
        data = self._read_row_range(start, stop, handle)
        self.stats.record_read(self.stats_name, last - first_page + 1)
        return data

    def read_all(self) -> np.ndarray:
        """Read the whole file (counts every occupied page)."""
        if self._nrows == 0:
            return np.empty((0, self.ncols))
        return self.read_pages(0, self.npages)

    def _read_row_range(self, start: int, stop: int, handle=None) -> np.ndarray:
        with self._io_lock.read():
            if handle is not None:
                return self._read_row_range_unlocked(start, stop, handle)
            with open(self.path, "rb") as handle:
                return self._read_row_range_unlocked(start, stop, handle)

    def _read_row_range_unlocked(
        self, start: int, stop: int, handle
    ) -> np.ndarray:
        """Rows ``[start, stop)`` through the caller's open ``handle`` —
        a multi-page call opens the file once, not once per page."""
        count = (stop - start) * self.ncols
        handle.seek(start * self.ncols * _FLOAT_BYTES)
        flat = np.fromfile(handle, dtype=np.float64, count=count)
        if flat.size != count:
            raise StorageError(
                f"short read from {self.path}: wanted {count} values, "
                f"got {flat.size}"
            )
        return flat.reshape(stop - start, self.ncols)

    def iter_pages(self) -> Iterator[np.ndarray]:
        """Yield each page's rows in order."""
        return self.iter_page_blocks(1)

    def iter_page_blocks(self, pages_per_block: int) -> Iterator[np.ndarray]:
        """Yield blocks of ``pages_per_block`` pages (the BNL outer unit).

        A scan opens the file once; each block takes the read lock for
        its own read only, never across a ``yield``.
        """
        if pages_per_block <= 0:
            raise StorageError(
                f"pages_per_block must be positive, got {pages_per_block}"
            )
        with open(self.path, "rb") as handle:
            for first in range(0, self.npages, pages_per_block):
                yield self.read_pages(first, pages_per_block, handle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeapFile({self.path.name!r}, ncols={self.ncols}, "
            f"nrows={self._nrows}, npages={self.npages})"
        )
