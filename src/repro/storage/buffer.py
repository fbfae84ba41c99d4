"""A small LRU buffer pool over heap-file pages.

The join operators in :mod:`repro.join` manage their own block-sized
batches directly (as the paper assumes block nested loops), but repeated
point probes into the inner relation benefit from page caching.  The
buffer pool sits in front of a :class:`~repro.storage.heapfile.HeapFile`
and only charges I/O for misses, so measured page counts reflect a
bounded-memory execution rather than unlimited re-reading.

Concurrency: one pool lock guards the page table, but cold misses do
**not** hold it across the disk read.  A miss installs a per-page
*in-flight guard* and releases the lock, so

* cold misses for *different* pages read in parallel (the reads release
  the GIL in ``np.fromfile``), where the previous design serialized
  every miss behind one lock — ``inflight_peak`` records how many reads
  actually overlapped;
* concurrent requests for the *same* page are single-flight: the first
  caller (the leader) reads, later callers (followers) wait on the
  guard and reuse the leader's page — counted in ``coalesced_reads``
  and charged zero heap I/O.

Invalidation stays race-free through a page-version re-check: every
guard snapshots its page's version at install;
:meth:`BufferPool.invalidate_pages` (called after an in-place update)
bumps the version *and detaches the guard*, so

* the leader, on completing its read, re-checks — version changed (or
  guard detached) means the bytes may predate the update, and the page
  is **not** cached (``stale_discards`` counts these).  The leader and
  any followers that joined before the invalidation still receive those
  bytes: their reads began before the update completed, exactly the
  outcome the old read-under-lock design also allowed;
* a reader arriving *after* ``invalidate_pages`` returned finds neither
  a cached page nor a guard, and reads the new bytes fresh — the
  invariant serving correctness rests on ("a prediction issued after
  ``update_rows`` returns reflects the new rows").

``_page_versions`` only holds pages that were ever invalidated, so it
grows with update activity, not with reads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import StorageError
from repro.obs.trace import current_span
from repro.storage.heapfile import HeapFile, page_runs


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


class BufferPool:
    """Fixed-capacity LRU cache of ``(file, page_no) -> page`` arrays.

    ``capacity_pages`` bounds residency (LRU-evicted).  Counters:
    ``hits`` / ``misses`` as usual (a follower counts as a hit — it was
    served without new I/O), ``coalesced_reads`` (followers that
    piggybacked on an in-flight read), ``inflight_peak`` (most reads
    ever simultaneously in flight — >1 means cold misses actually
    parallelized), and ``stale_discards`` (completed reads dropped
    because an invalidation raced them).
    """

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise StorageError(
                f"buffer pool capacity must be positive, got {capacity_pages}"
            )
        self.capacity_pages = capacity_pages
        self._pages: OrderedDict[tuple[str, int], np.ndarray] = OrderedDict()
        self._inflight: dict[tuple[str, int], _InFlightRead] = {}
        self._page_versions: dict[tuple[str, int], int] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.coalesced_reads = 0
        self.inflight_peak = 0
        self.stale_discards = 0

    def __len__(self) -> int:
        return len(self._pages)

    def get_page(self, heap: HeapFile, page_no: int) -> np.ndarray:
        """Return a page, from cache if resident, else loading it.

        The returned array must be treated as read-only (it is shared
        between callers); we enforce this by clearing the writeable
        flag.  Cold misses read *outside* the pool lock behind a
        per-page in-flight guard — see the module docstring for the
        concurrency and invalidation story.
        """
        cache_key = (str(heap.path), page_no)
        # Attribution to the in-flight request's span (if any) happens
        # outside the pool lock: current_span() is a thread-local read
        # and the span belongs to this thread alone.
        span = current_span()
        while True:
            with self._lock:
                cached = self._pages.get(cache_key)
                if cached is not None:
                    self._pages.move_to_end(cache_key)
                    self.hits += 1
                    if span is not None:
                        span.add("pages.hit")
                    return cached
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
                if installed and current == guard.version:
                    self._pages[cache_key] = page
                    while len(self._pages) > self.capacity_pages:
                        self._pages.popitem(last=False)
                else:
                    # An invalidation raced this read: the bytes may
                    # predate the update, so they are returned to the
                    # callers whose reads began before it, but never
                    # cached.
                    self.stale_discards += 1
            guard.done.set()
            if span is not None:
                span.add("pages.read")
            return page

    def read_rows(self, heap: HeapFile, positions: np.ndarray) -> np.ndarray:
        """Rows of ``heap`` at ``positions`` (aligned, any order), each
        page they touch fetched once through :meth:`get_page` — one
        copy per page run (:func:`~repro.storage.heapfile.page_runs`),
        not a mask over every position per page."""
        out = np.empty((positions.size, heap.ncols))
        for page_no, where, slots in page_runs(positions, heap.rows_per_page):
            out[where] = self.get_page(heap, page_no)[slots]
        return out

    def _detach_inflight(self, cache_key: tuple[str, int]) -> None:
        """Version-bump and detach any in-flight read of ``cache_key``
        (caller holds the pool lock) so its bytes are never cached and
        no later reader joins it."""
        self._page_versions[cache_key] = (
            self._page_versions.get(cache_key, 0) + 1
        )
        self._inflight.pop(cache_key, None)

    def invalidate(self, heap: HeapFile) -> None:
        """Drop all cached pages belonging to ``heap`` (and detach any
        of its in-flight reads, so a racing read cannot re-cache)."""
        path = str(heap.path)
        with self._lock:
            stale = [k for k in self._pages if k[0] == path]
            for cache_key in stale:
                del self._pages[cache_key]
            for cache_key in [k for k in self._inflight if k[0] == path]:
                self._detach_inflight(cache_key)

    def invalidate_pages(
        self, heap: HeapFile, page_nos: Iterable[int]
    ) -> None:
        """Drop specific cached pages of ``heap`` (after in-place
        updates), bumping their versions so any read currently in
        flight discards its possibly-stale bytes on completion."""
        path = str(heap.path)
        with self._lock:
            for page_no in page_nos:
                cache_key = (path, int(page_no))
                self._pages.pop(cache_key, None)
                self._detach_inflight(cache_key)

    def clear(self) -> None:
        """Drop everything and reset hit/miss counters.

        In-flight reads are detached (their leaders complete but their
        bytes are not cached); page versions survive so those leaders'
        re-checks stay correct.
        """
        with self._lock:
            self._pages.clear()
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
                resident_pages=len(self._pages),
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
            f"resident={len(self._pages)}, hit_rate={self.hit_rate:.2f}, "
            f"inflight_peak={self.inflight_peak})"
        )
