"""A small LRU buffer pool over heap-file pages.

The join operators in :mod:`repro.join` manage their own block-sized
batches directly (as the paper assumes block nested loops), but repeated
point probes into the inner relation benefit from page caching.  The
buffer pool sits in front of a :class:`~repro.storage.heapfile.HeapFile`
and only charges I/O for misses, so measured page counts reflect a
bounded-memory execution rather than unlimited re-reading.

Layout: each heap's resident pages live in one ``(frames, rows_per_page,
ncols)`` float64 array (an anonymous memory map of its own, outside the
allocator's heap), found through a page table (page number → frame,
−1 = not resident).  Recency is one stamp per frame from a pool-wide
clock, and a full pool evicts the globally oldest stamp.  So a warm
:meth:`BufferPool.read_rows` is array code whatever the number of pages
it touches: one ``take`` of the page table, one stamp assignment and one
gather of the rows, all under the pool lock.  The frame array is sized
to the pages the heap can actually hold (never past the pool's capacity
or the heap's page count) and grows by a quarter at a time.

Concurrency: one pool lock guards the page tables, but cold misses do
**not** hold it across the disk read.  Only pages that are not resident
take this path, one page at a time (:meth:`BufferPool.get_page`).  A
miss installs a per-page *in-flight guard* and releases the lock, so

* cold misses for *different* pages read in parallel (the reads release
  the GIL in ``np.fromfile``), where the previous design serialized
  every miss behind one lock — ``inflight_peak`` records how many reads
  actually overlapped;
* concurrent requests for the *same* page are single-flight: the first
  caller (the leader) reads, later callers (followers) wait on the
  guard and reuse the leader's page — counted in ``coalesced_reads``
  and charged zero heap I/O.

The leader copies its page into a free frame (or the frame it evicts);
the array it returns stays its own, and a resident page handed out by
``get_page`` is a read-only copy of its frame, so no page a caller holds
changes when its frame is reused.

An in-place update writes through the pool, in a fixed order:
``Database.update_rows`` writes the heap first (the heap's own
read-modify-write, so heap I/O is charged as before), then
:meth:`BufferPool.write_through`, under the pool lock, bumps each
touched page's version, detaches any in-flight read of it, and patches
the frame that holds the page at that moment — a page that is not
resident stays so.  Every guard snapshots its page's version at
install, so

* a leader whose read may have seen the old bytes either re-checks on
  completion, finds the version changed (or its guard detached) and
  does **not** cache them (``stale_discards`` counts these) — it and
  the followers that joined before the update still receive those
  bytes, as a read that began before the update may — or it installed
  its frame before the bump, and the patch makes that frame current;
* a reader arriving *after* ``write_through`` returned finds the
  patched frame, or no frame and no guard and reads the new bytes from
  the heap — the invariant serving correctness rests on ("a prediction
  issued after ``update_rows`` returns reflects the new rows").

So after an update the heap and every resident frame hold the same
bytes, and the maintainer's and the next rebuild's reads of the
updated rows are one gather of frames that are already current.
:meth:`BufferPool.invalidate_pages` keeps the version bump without the
patch, and drops the pages instead.

A page read short of the rows the heap now holds on it (an append
landed while the read was in flight) is not cached either, and when a
heap's row count moves, the resident pages it changed are dropped
before the next lookup: a frame never serves a row it does not hold.

``_page_versions`` only holds pages that were ever updated or
invalidated, so it grows with update activity, not with reads.
"""

from __future__ import annotations

import mmap
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import StorageError
from repro.fx.dedup import distinct_values
from repro.obs.trace import current_span
from repro.storage.heapfile import HeapFile, checked_positions, page_runs

# The stamp of a free frame: never the oldest.
FREE = np.iinfo(np.int64).max


@dataclass(frozen=True)
class BufferStats:
    """Point-in-time buffer-pool counters (taken under the pool lock,
    so all fields are from one instant)."""

    hits: int = 0
    misses: int = 0
    coalesced_reads: int = 0
    inflight_peak: int = 0
    stale_discards: int = 0
    resident_pages: int = 0
    capacity_pages: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class _InFlightRead:
    """Single-flight state for one cold page read.

    The leader publishes ``page`` (or ``error``) and sets ``done``;
    followers wait on the event.  ``version`` is the page version seen
    at install time — the leader only caches its bytes if the version
    is unchanged *and* the guard is still the installed one (an
    invalidation detaches it).
    """

    __slots__ = ("done", "page", "error", "version")

    def __init__(self, version: int) -> None:
        self.done = threading.Event()
        self.page: np.ndarray | None = None
        self.error: BaseException | None = None
        self.version = version


def _frame_array(shape: tuple[int, int, int]) -> np.ndarray:
    """A float64 array of ``shape`` in an anonymous memory map of its
    own.  Frames are one block per heap, the size of every page it
    holds; out of the allocator's heap they split none of its free
    space (where page-sized arrays used to fill it), and a dropped or
    outgrown block goes back to the system at once."""
    count = shape[0] * shape[1] * shape[2]
    buffer = mmap.mmap(-1, count * np.dtype(np.float64).itemsize)
    return np.frombuffer(buffer, dtype=np.float64, count=count).reshape(shape)


class _HeapFrames:
    """One heap's resident pages (every access under the pool lock).

    ``frames[f]`` holds page ``page_of[f]`` in its first ``rows[f]``
    rows (only a heap's last page holds fewer than ``rows_per_page``);
    ``table[p]`` is the frame holding page ``p``, or −1; ``stamps[f]``
    is the pool tick of the frame's last read, :data:`FREE` for a free
    frame, whose number is on ``free``.  ``nrows`` is the heap's row
    count the table was last fitted to.
    """

    __slots__ = (
        "rows_per_page", "ncols", "nrows", "frames", "rows", "page_of",
        "stamps", "table", "free",
    )

    def __init__(self, heap: HeapFile) -> None:
        self.rows_per_page, self.ncols = heap.rows_per_page, heap.ncols
        self.nrows = heap.nrows
        self.frames = np.empty((0, self.rows_per_page, self.ncols))
        self.rows = np.empty(0, dtype=np.int64)
        self.page_of = np.empty(0, dtype=np.int64)
        self.stamps = np.empty(0, dtype=np.int64)
        self.table = np.full(heap.npages, -1, dtype=np.int64)
        self.free: list[int] = []

    @property
    def held(self) -> int:
        return self.stamps.size - len(self.free)

    def frame_of(self, page_no: int) -> int:
        if 0 <= page_no < self.table.size:
            return int(self.table[page_no])
        return -1

    def expected_rows(self, page_no):
        """Rows the heap holds on ``page_no`` (scalar or array) now."""
        return np.clip(
            self.nrows - page_no * self.rows_per_page, 0, self.rows_per_page
        )

    def refit(self, heap: HeapFile) -> int:
        """Follow the heap's row count: a table over every page, and no
        resident page whose row count the heap has since changed (an
        append extends a short last page in place).  Pages dropped."""
        self.nrows = heap.nrows
        grown = heap.npages - self.table.size
        if grown > 0:
            self.table = np.append(self.table, np.full(grown, -1))
        held = np.flatnonzero(self.page_of >= 0)
        changed = self.rows[held] != self.expected_rows(self.page_of[held])
        return self.drop(held[changed])

    def grow(self, size: int) -> None:
        """Widen to ``size`` frames, the new ones free."""
        old = self.stamps.size
        frames = _frame_array((size, self.rows_per_page, self.ncols))
        frames[:old] = self.frames
        self.frames = frames
        extra = size - old
        self.rows = np.append(self.rows, np.zeros(extra, dtype=np.int64))
        self.page_of = np.append(self.page_of, np.full(extra, -1))
        self.stamps = np.append(self.stamps, np.full(extra, FREE))
        self.free.extend(range(size - 1, old - 1, -1))

    def drop(self, frames: np.ndarray) -> int:
        """Free ``frames`` (distinct, resident); how many."""
        self.table[self.page_of[frames]] = -1
        self.page_of[frames] = -1
        self.stamps[frames] = FREE
        self.free.extend(frames.tolist())
        return frames.size


class BufferPool:
    """Fixed-capacity LRU cache of heap pages, held in per-heap frames.

    ``capacity_pages`` bounds residency (the globally least recently
    read page goes first).  Counters, each counted once per distinct
    page per call: ``hits`` / ``misses`` as usual (a follower counts as
    a hit — it was served without new I/O), ``coalesced_reads``
    (followers that piggybacked on an in-flight read), ``inflight_peak``
    (most reads ever simultaneously in flight — >1 means cold misses
    actually parallelized), and ``stale_discards`` (completed reads
    dropped because an invalidation or an append raced them).
    """

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise StorageError(
                f"buffer pool capacity must be positive, got {capacity_pages}"
            )
        self.capacity_pages = capacity_pages
        self._heaps: dict[str, _HeapFrames] = {}
        self._resident = 0
        self._clock = 0
        self._inflight: dict[tuple[str, int], _InFlightRead] = {}
        self._page_versions: dict[tuple[str, int], int] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.coalesced_reads = 0
        self.inflight_peak = 0
        self.stale_discards = 0

    def __len__(self) -> int:
        return self._resident

    def resident_pages(self, heap: HeapFile) -> list[int]:
        """The page numbers of ``heap`` resident now, ascending."""
        with self._lock:
            state = self._heaps.get(str(heap.path))
            if state is None:
                return []
            return np.flatnonzero(state.table >= 0).tolist()

    def get_page(self, heap: HeapFile, page_no: int) -> np.ndarray:
        """Return a page, from cache if resident, else loading it.

        The returned array is read-only (the writeable flag is
        cleared): a resident page comes back as a copy of its frame, a
        loaded one as the array the leader read, which followers share.
        Cold misses read *outside* the pool lock behind a per-page
        in-flight guard — see the module docstring for the concurrency
        and invalidation story.
        """
        path = str(heap.path)
        cache_key = (path, page_no)
        # Attribution to the in-flight request's span (if any) happens
        # outside the pool lock: current_span() is a thread-local read
        # and the span belongs to this thread alone.
        span = current_span()
        while True:
            with self._lock:
                state = self._frames_for(heap, path)
                frame = state.frame_of(page_no)
                if frame >= 0:
                    self._clock += 1
                    state.stamps[frame] = self._clock
                    self.hits += 1
                    page = state.frames[frame, :state.rows[frame]].copy()
                    page.flags.writeable = False
                    if span is not None:
                        span.add("pages.hit")
                    return page
                guard = self._inflight.get(cache_key)
                if guard is None:
                    guard = _InFlightRead(
                        self._page_versions.get(cache_key, 0)
                    )
                    self._inflight[cache_key] = guard
                    self.misses += 1
                    self.inflight_peak = max(
                        self.inflight_peak, len(self._inflight)
                    )
                    leader = True
                else:
                    leader = False
            if not leader:
                guard.done.wait()
                if guard.error is not None:
                    # The leader failed; retry from scratch (this
                    # caller becomes the new leader and surfaces the
                    # error itself if it persists).
                    continue
                with self._lock:
                    self.hits += 1
                    self.coalesced_reads += 1
                if span is not None:
                    span.add("pages.coalesced")
                return guard.page
            try:
                page = heap.read_page(page_no)
                page.flags.writeable = False
            except BaseException as error:
                with self._lock:
                    guard.error = error
                    if self._inflight.get(cache_key) is guard:
                        del self._inflight[cache_key]
                guard.done.set()
                raise
            with self._lock:
                guard.page = page
                installed = self._inflight.get(cache_key) is guard
                if installed:
                    del self._inflight[cache_key]
                current = self._page_versions.get(cache_key, 0)
                if not (
                    installed and current == guard.version
                    and self._install(heap, path, page_no, page)
                ):
                    # An invalidation (or an append) raced this read:
                    # the bytes may predate it, so they are returned to
                    # the callers whose reads began before it, but
                    # never cached.
                    self.stale_discards += 1
            guard.done.set()
            if span is not None:
                span.add("pages.read")
            return page

    def read_rows(self, heap: HeapFile, positions: np.ndarray) -> np.ndarray:
        """Rows of ``heap`` at ``positions`` (aligned, any order).

        Positions are checked first (integers in ``[0, nrows)``, see
        :func:`~repro.storage.heapfile.checked_positions`).  The rows on
        resident pages come out of one gather over the heap's frames,
        under the pool lock, their frames stamped at once; each page
        that is not resident is then fetched once through
        :meth:`get_page` and copied per page run
        (:func:`~repro.storage.heapfile.page_runs`).
        """
        positions = checked_positions(positions, heap.nrows)
        pages = positions // heap.rows_per_page
        path = str(heap.path)
        span = current_span()
        with self._lock:
            state = self._frames_for(heap, path)
            frames = state.table.take(pages)
            whole = not frames.size or frames.min() >= 0
            if not whole:
                held = frames >= 0
                missing = np.flatnonzero(~held)
                runs = list(page_runs(positions[missing], heap.rows_per_page))
                self._reserve(state, heap, len(runs))
                frames, pages, positions = (
                    frames[held], pages[held], positions[held]
                )
            self._clock += 1
            state.stamps[frames] = self._clock
            hits = int(np.count_nonzero(state.stamps == self._clock))
            self.hits += hits
            rows = state.frames.reshape(-1, heap.ncols).take(
                (frames - pages) * heap.rows_per_page + positions, axis=0
            )
        if span is not None and hits:
            span.add("pages.hit", hits)
        if whole:
            return rows
        out = np.empty((held.size, heap.ncols))
        out[held] = rows
        for page_no, where, slots in runs:
            out[missing[where]] = self.get_page(heap, page_no)[slots]
        return out

    # -- frames (every helper below runs under the pool lock) ---------------

    def _frames_for(self, heap: HeapFile, path: str) -> _HeapFrames:
        """``heap``'s frames, fitted to the heap as it is now."""
        state = self._heaps.get(path)
        if state is None or (state.rows_per_page, state.ncols) != (
            heap.rows_per_page, heap.ncols
        ):
            if state is not None:       # the file was recreated
                self._resident -= state.held
            state = self._heaps[path] = _HeapFrames(heap)
        elif state.nrows != heap.nrows:
            self._resident -= state.refit(heap)
        return state

    def _reserve(self, state: _HeapFrames, heap: HeapFile, pages: int) -> None:
        """Free frames for ``pages`` more pages of ``heap`` where the
        pool can hold them: one widening to what is missing or by a
        quarter, never past the pool's capacity or the heap's pages."""
        short = pages - len(state.free)
        size = state.stamps.size
        wanted = min(
            self.capacity_pages, heap.npages, size + max(short, size // 4)
        )
        if short > 0 and wanted > size:
            state.grow(wanted)

    def _install(
        self, heap: HeapFile, path: str, page_no: int, page: np.ndarray
    ) -> bool:
        """Copy a freshly read page into a frame, evicting the globally
        oldest page if the pool is full; ``False`` (nothing cached) if
        the heap now holds a different number of rows on that page."""
        state = self._frames_for(heap, path)
        if page.shape[0] != state.expected_rows(page_no):
            return False
        if self._resident >= self.capacity_pages:
            self._evict_oldest()
        if not state.free:
            self._reserve(state, heap, 1)
        frame = state.free.pop()
        state.frames[frame, :page.shape[0]] = page
        state.rows[frame] = page.shape[0]
        state.page_of[frame] = page_no
        state.table[page_no] = frame
        self._clock += 1
        state.stamps[frame] = self._clock
        self._resident += 1
        return True

    def _evict_oldest(self) -> None:
        """Drop the resident page with the oldest stamp, in any heap."""
        victim, oldest = None, FREE
        for state in self._heaps.values():
            if state.stamps.size:
                frame = int(state.stamps.argmin())
                if state.stamps[frame] < oldest:
                    victim, oldest = (state, frame), state.stamps[frame]
        state, frame = victim
        self._resident -= state.drop(np.array([frame]))

    def _detach_inflight(self, cache_key: tuple[str, int]) -> None:
        """Version-bump and detach any in-flight read of ``cache_key``
        (caller holds the pool lock) so its bytes are never cached and
        no later reader joins it."""
        self._page_versions[cache_key] = (
            self._page_versions.get(cache_key, 0) + 1
        )
        self._inflight.pop(cache_key, None)

    def invalidate(self, heap: HeapFile) -> None:
        """Drop all cached pages belonging to ``heap``, frames and all
        (and detach any of its in-flight reads, so a racing read cannot
        re-cache)."""
        path = str(heap.path)
        with self._lock:
            state = self._heaps.pop(path, None)
            if state is not None:
                self._resident -= state.held
            for cache_key in [k for k in self._inflight if k[0] == path]:
                self._detach_inflight(cache_key)

    def write_through(
        self, heap: HeapFile, positions: np.ndarray, rows: np.ndarray
    ) -> None:
        """Bring the pool in step with ``rows`` just written to ``heap``
        at ``positions`` (checked heap row numbers; a repeated one ends
        up with its last row, as in :meth:`HeapFile.update_rows`).  Call
        it after the heap write returned: each touched page's version is
        bumped and any in-flight read of it detached, as
        :meth:`invalidate_pages` does, then the frame that holds the
        page now is patched in place.  A page that is not resident stays
        so, and no counter or recency stamp moves."""
        path = str(heap.path)
        pages = positions // heap.rows_per_page
        with self._lock:
            for page_no in distinct_values(pages).tolist():
                self._detach_inflight((path, page_no))
            if path not in self._heaps:
                return
            state = self._frames_for(heap, path)
            frames = state.table.take(pages)
            held = frames >= 0
            state.frames.reshape(-1, heap.ncols)[
                (frames[held] - pages[held]) * heap.rows_per_page
                + positions[held]
            ] = rows[held]

    def invalidate_pages(
        self, heap: HeapFile, page_nos: Iterable[int]
    ) -> None:
        """Drop specific cached pages of ``heap`` (after in-place
        updates), bumping their versions so any read currently in
        flight discards its possibly-stale bytes on completion."""
        path = str(heap.path)
        with self._lock:
            state = self._heaps.get(path)
            frames = []
            for page_no in page_nos:
                page_no = int(page_no)
                self._detach_inflight((path, page_no))
                frame = -1 if state is None else state.frame_of(page_no)
                if frame >= 0:
                    frames.append(frame)
            if frames:
                self._resident -= state.drop(distinct_values(frames))

    def clear(self) -> None:
        """Drop everything, frames included, and reset hit/miss counters.

        In-flight reads are detached (their leaders complete but their
        bytes are not cached); page versions survive so those leaders'
        re-checks stay correct.
        """
        with self._lock:
            self._heaps.clear()
            self._resident = 0
            for cache_key in list(self._inflight):
                self._detach_inflight(cache_key)
            self.hits = 0
            self.misses = 0
            self.coalesced_reads = 0
            self.inflight_peak = 0
            self.stale_discards = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> BufferStats:
        """An atomic copy of every counter (one locked read)."""
        with self._lock:
            return BufferStats(
                hits=self.hits,
                misses=self.misses,
                coalesced_reads=self.coalesced_reads,
                inflight_peak=self.inflight_peak,
                stale_discards=self.stale_discards,
                resident_pages=self._resident,
                capacity_pages=self.capacity_pages,
            )

    def collect(self, buffer) -> None:
        """Sample the pool's counters into a telemetry snapshot (one
        :meth:`stats` read, so the group is internally consistent)."""
        pool = self.stats()
        buffer.counter(
            "repro_bufferpool_hits_total", pool.hits,
            help="Buffer-pool page hits (followers included)",
        )
        buffer.counter(
            "repro_bufferpool_misses_total", pool.misses,
            help="Buffer-pool page misses (leader reads)",
        )
        buffer.counter(
            "repro_bufferpool_coalesced_reads_total",
            pool.coalesced_reads,
            help="Followers that piggybacked on an in-flight read",
        )
        buffer.gauge(
            "repro_bufferpool_inflight_peak", pool.inflight_peak,
            help="Most page reads ever simultaneously in flight",
        )
        buffer.counter(
            "repro_bufferpool_stale_discards_total", pool.stale_discards,
            help="Completed reads dropped because an invalidation "
                 "raced them",
        )
        buffer.gauge(
            "repro_bufferpool_resident_pages", pool.resident_pages,
            help="Pages currently cached",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPool(capacity={self.capacity_pages}, "
            f"resident={len(self)}, hit_rate={self.hit_rate:.2f}, "
            f"inflight_peak={self.inflight_peak})"
        )
