"""Shared-memory arena for the process execution backend.

The process executor (:mod:`repro.runtime.procpool`) moves batch
execution out of the GIL by scattering sub-batches to worker
*processes*.  Everything bulky crosses the process boundary through
``multiprocessing.shared_memory`` segments managed here; the pipe
carries only small control messages (indices, segment names, shm
offsets — never arrays).  Three pieces:

* :class:`ShmArena` — named-segment bookkeeping with the lifetime
  guarantees the teardown tests assert: the creating side (the parent)
  owns every segment and unlinks it on :meth:`ShmArena.close` *and* on
  interpreter exit (``atexit``), so a crashed or lazily-closed run
  never leaks ``/dev/shm`` entries; attaching sides (workers) detach
  without unlinking.  Workers are always *children* of the creating
  process, so they share its ``multiprocessing.resource_tracker``:
  attach-time re-registration is an idempotent set-add there, and the
  one unregistration happens at the owner's unlink — the tracker
  remains a pure leak backstop (it unlinks anything still registered
  when the whole process tree dies).

* :class:`SlabAllocator` — a block allocator over one segment's
  buffer (bump allocation + per-size free lists).  Each cache's
  :class:`~repro.serve.cache.SlotTable` takes its whole float64 slab
  from it — one block per cache, relocated when it grows or shrinks:
  allocate new, copy, free old — so thread and process executors share
  one row layout.  When the segment has no room for the next block the
  slab moves to private process memory instead (graceful overflow, not
  an error), and the cache layer reports the two residencies separately
  (:class:`~repro.serve.cache.CacheStats.shm_bytes_resident`), so the
  ``memory_budget`` accounting stays truthful about which bytes live
  in the shared segment and which are private overflow.

* per-worker segment headers — each worker's
  :class:`~repro.fx.store.PartialStore` publishes its
  :class:`~repro.serve.cache.Residency` into its row of an int64
  header segment (:func:`header_view`,
  :meth:`~repro.fx.store.PartialStore.publish_header`); the parent's
  governor reads the rows (no IPC) and plans *deficit-bounded* trims
  (:func:`plan_trims`): workers are swept largest-resident-first, each
  trim capped by the worker's own residency and the sweep's total
  capped by the global deficit — the cross-process analogue of the
  store's cross-cache eviction, with the same victim order
  because each worker's trim runs through
  :meth:`~repro.fx.store.PartialStore.trim`.

Header writes are plain int64 stores (atomic on every platform numpy
supports for aligned 8-byte writes); the governor treats them as
monitoring-grade values — a torn read could only mis-size one sweep,
which the next sweep corrects.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ModelError
from repro.serve.cache import Residency

SEGMENT_PREFIX = "repro-shm"

# Per-worker int64 header row (see header_view): the worker store's
# Residency record, field for field — PartialStore.publish_header
# writes it as one slice, header_residency reads it back — then the
# partial rows the worker dropped on dimension updates, the one
# per-worker count no parent-side record holds (rows and batches are
# attributed from each EXEC reply's ExecMeta).  Compressed
# float-equivalents are *included* in the floats slot (budget truth);
# the tier fields let the parent break residency down per tier and
# export demotion/promotion counters without any IPC.
HDR_FLOATS_RESIDENT = Residency._fields.index("floats")
HDR_INVALIDATED = len(Residency._fields)
HEADER_FIELDS = HDR_INVALIDATED + 1

_FLOAT_BYTES = 8


def segment_name(tag: str) -> str:
    """A collision-resistant ``/dev/shm`` name carrying our prefix.

    The prefix + pid make leaked segments attributable in tests and
    ops (``ls /dev/shm | grep repro-shm``); the random suffix keeps
    two runtimes in one process from colliding.
    """
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{tag}-{secrets.token_hex(4)}"


class ShmSegment:
    """One named shared-memory segment plus its ownership bit."""

    __slots__ = ("name", "shm", "owner")

    def __init__(
        self, shm: shared_memory.SharedMemory, *, owner: bool
    ) -> None:
        self.shm = shm
        self.name = shm.name
        self.owner = owner

    @property
    def buf(self) -> memoryview:
        return self.shm.buf

    @property
    def size(self) -> int:
        return self.shm.size

    def close(self) -> None:
        """Detach (and unlink when owner).  Safe to call twice.

        A worker that still holds numpy views into the buffer cannot
        release the mapping (``BufferError``); the mapping then lives
        until process exit, which is fine — the *owner's* unlink is
        what keeps ``/dev/shm`` clean.
        """
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - exports still alive
            pass
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass


class ShmArena:
    """Tracks every segment a component created or attached.

    The parent-side executor owns one arena for all its segments
    (headers, per-worker task slabs, per-worker partial slabs); each
    worker owns a small arena of attachments.  ``close()`` is
    idempotent and also runs at interpreter exit, so segments cannot
    outlive the process that owns them even when ``close()`` was never
    called explicitly.
    """

    def __init__(self) -> None:
        self._segments: dict[str, ShmSegment] = {}
        self._lock = threading.Lock()
        self._closed = False
        # Fork children inherit this arena object *and* its atexit
        # registration; close() must be a no-op there or a worker's
        # normal exit would unlink segments the parent still serves
        # from.  The pid check distinguishes the owning process.
        self._pid = os.getpid()
        atexit.register(self.close)

    def create(self, tag: str, nbytes: int) -> ShmSegment:
        if nbytes <= 0:
            raise ModelError(
                f"shm segment size must be positive, got {nbytes}"
            )
        if self._closed:
            raise ModelError("shm arena is closed")
        shm = shared_memory.SharedMemory(
            name=segment_name(tag), create=True, size=nbytes
        )
        segment = ShmSegment(shm, owner=True)
        with self._lock:
            self._segments[segment.name] = segment
        return segment

    def attach(self, name: str) -> ShmSegment:
        # Attaching from a *child* of the creating process re-registers
        # the name with the shared resource tracker — an idempotent
        # set-add, deliberately left in place: the single
        # unregistration happens when the owner unlinks.
        shm = shared_memory.SharedMemory(name=name)
        segment = ShmSegment(shm, owner=False)
        with self._lock:
            self._segments[name] = segment
        return segment

    def release(self, name: str) -> None:
        """Close (and unlink, when owned) one segment early — e.g. a
        task slab the executor outgrew and replaced."""
        with self._lock:
            segment = self._segments.pop(name, None)
        if segment is not None:
            segment.close()

    @property
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._segments)

    def close(self) -> None:
        if os.getpid() != self._pid:
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments = list(self._segments.values())
            self._segments.clear()
        for segment in segments:
            segment.close()


class SlabAllocator:
    """Float64 block allocation over one shm buffer.

    A cache asks for its slab as one block of ``rows × width`` floats
    and, when it outgrows it (or empties out), for the next size
    before freeing the old one.  Freed blocks are recycled through
    per-size free lists; the bump pointer only grows when no freed
    block of the right size exists.  ``allocate`` returns ``None`` when
    the segment cannot hold the block — the caller keeps its slab in
    private memory instead (graceful overflow, not an error).
    """

    def __init__(self, buf: memoryview) -> None:
        self._buf = buf
        self._nbytes = len(buf)
        self._bump = 0
        self._free: dict[int, list[int]] = {}
        self._lock = threading.Lock()

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def allocate(self, width: int) -> tuple[int, np.ndarray] | None:
        """A ``(offset, float64 view)`` block of ``width`` floats, or
        ``None`` when the segment cannot hold it."""
        if width <= 0:
            return None
        nbytes = width * _FLOAT_BYTES
        with self._lock:
            stack = self._free.get(width)
            if stack:
                offset = stack.pop()
            elif self._bump + nbytes <= self._nbytes:
                offset = self._bump
                self._bump += nbytes
            else:
                return None
        view = np.frombuffer(
            self._buf, dtype=np.float64, count=width, offset=offset
        )
        return offset, view

    def free(self, offset: int, width: int) -> None:
        with self._lock:
            self._free.setdefault(width, []).append(offset)

    @property
    def bytes_reserved(self) -> int:
        """High-water bytes ever handed out (bump position)."""
        with self._lock:
            return self._bump


def header_view(buf: memoryview, num_workers: int) -> np.ndarray:
    """The ``(num_workers, HEADER_FIELDS)`` int64 view over a header
    segment — same layout on both sides of the fork."""
    return np.frombuffer(
        buf, dtype=np.int64, count=num_workers * HEADER_FIELDS
    ).reshape(num_workers, HEADER_FIELDS)


def header_nbytes(num_workers: int) -> int:
    return num_workers * HEADER_FIELDS * 8


def header_residency(row: np.ndarray) -> Residency:
    """The :class:`~repro.serve.cache.Residency` a worker's store last
    published into its header ``row``."""
    return Residency(*row[:HDR_INVALIDATED].tolist())


def plan_trims(resident: list[int], budget: int) -> list[int]:
    """Deficit-bounded per-worker trim amounts (floats).

    The global deficit is ``sum(resident) - budget``; it is taken from
    the largest residents first, each worker's share capped by its own
    residency, the total capped by the deficit — one sweep never
    over-evicts, and a worker below its fair share is never touched
    while a larger one can cover the deficit alone.
    """
    deficit = sum(resident) - budget
    trims = [0] * len(resident)
    if deficit <= 0:
        return trims
    order = sorted(
        range(len(resident)), key=lambda i: resident[i], reverse=True
    )
    remaining = deficit
    for index in order:
        take = min(resident[index], remaining)
        if take <= 0:
            break
        trims[index] = int(take)
        remaining -= take
        if remaining <= 0:
            break
    return trims
