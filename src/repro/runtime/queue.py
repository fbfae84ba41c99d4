"""A bounded request queue with micro-batch coalescing.

The runtime's admission path: producers :meth:`RequestQueue.put`
normalized point requests (blocking while the queue is full — natural
backpressure toward callers), workers :meth:`RequestQueue.take_batch`
*micro-batches*: the oldest request plus every queued request for the
same (model, op), up to a row budget, waiting for stragglers while
the batch's own arrival rate says one is due, at most ``max_wait``.
Batching is what makes factorized serving pay under point-lookup
traffic — a single fact row rarely repeats a RID, but a few
milliseconds of coalesced traffic almost always does.

The queue is deliberately its own data structure rather than
``queue.Queue`` because coalescing needs targeted removal: a worker
pulls matching requests out of the middle of the backlog, leaving
requests for other models in arrival order for the next worker.  The
backlog is a plain list, not a deque: coalescing is indexing-heavy
(O(1) on a list, O(n) on a deque) while the queue depth is bounded
small enough that the occasional O(n) front-pop memmove is noise.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError

#: A linger ends once nothing has arrived for this many of the batch's
#: own mean inter-arrival gaps: the burst is over and waiting on is idle
#: time.  2, 4, 8 and 16 read the same on ``runtime_thread_window``.
QUIET_GAPS = 4.0


@dataclass
class Request:
    """One normalized point request, ready to coalesce.

    ``features``/``fks`` are already validated and canonicalized (2-D
    fact features, one int64 array per dimension), so concatenating
    requests of the same batch key is plain ``np.concatenate``.
    """

    batch_key: tuple[str, str]       # (model name, op: "predict" | "score")
    features: np.ndarray
    fks: list[np.ndarray]
    future: Future = field(default_factory=Future)
    # Stamped at construction — before put() blocks on backpressure —
    # so the queue-wait clock includes time spent waiting for a slot,
    # which is exactly the latency the caller experiences.
    enqueued_at: float = field(default_factory=time.perf_counter)

    @property
    def rows(self) -> int:
        return self.features.shape[0]

    def wait_seconds(self, now: float | None = None) -> float:
        """Seconds since this request was created (queue wait)."""
        if now is None:
            now = time.perf_counter()
        return max(0.0, now - self.enqueued_at)


class RequestQueue:
    """Bounded FIFO of :class:`Request` with coalescing batch removal."""

    def __init__(self, max_requests: int) -> None:
        if max_requests <= 0:
            raise ModelError(
                f"queue depth must be positive, got {max_requests}"
            )
        self.max_requests = max_requests
        self._items: list[Request] = []
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self.enqueued = 0
        self.max_depth_seen = 0
        #: Batches by what closed them: the row cap, the quiet rule,
        #: the ``max_wait`` deadline, or :meth:`close`.
        self.close_reasons = dict.fromkeys(
            ("rows", "quiet", "deadline", "closed"), 0
        )

    @property
    def depth(self) -> int:
        """Requests currently queued (racy by nature; for stats only)."""
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- producer side -------------------------------------------------------

    def put(self, request: Request, timeout: float | None = None) -> None:
        """Enqueue, blocking while the queue is full (backpressure).

        Raises :class:`~repro.errors.ModelError` when the queue is
        closed or the timeout expires while full.
        """
        with self._not_full:
            if self._closed:
                raise ModelError("request queue is closed")
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            while len(self._items) >= self.max_requests:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise ModelError(
                        f"request queue full ({self.max_requests} requests) "
                        f"for {timeout}s; the workers are not keeping up"
                    )
                self._not_full.wait(remaining)
                if self._closed:
                    raise ModelError("request queue is closed")
            self._items.append(request)
            self.enqueued += 1
            self.max_depth_seen = max(self.max_depth_seen, len(self._items))
            # notify_all, not notify: a single wakeup could be consumed
            # by a lingering worker whose batch key does not match this
            # request, leaving an idle worker asleep while the request
            # waits out the linger.
            self._not_empty.notify_all()

    # -- consumer side -------------------------------------------------------

    def take_batch(
        self, max_rows: int, max_wait: float
    ) -> list[Request] | None:
        """The next micro-batch, or ``None`` when closed and drained.

        Blocks until at least one request is available, then coalesces
        every queued request sharing its batch key until ``max_rows``
        total rows are gathered, arrivals pause (nothing for
        :data:`QUIET_GAPS` mean gaps of the batch's own ``enqueued_at``
        stamps) or ``max_wait`` seconds have passed since the first
        request was claimed.  A lone request has no gap to read and
        waits out ``max_wait``.  Requests with other batch keys are
        left queued, in order, for other workers.
        """
        with self._not_empty:
            while not self._items:
                if self._closed:
                    return None
                self._not_empty.wait()
            first = self._items.pop(0)
            self._not_full.notify()
            batch = [first]
            rows = first.rows
            # perf_counter, the clock of the enqueued_at stamps.
            deadline = time.perf_counter() + max_wait
            # min/max, not first/last: a stamp predates its put(), so
            # two producers can queue out of stamp order.
            oldest = newest = first.enqueued_at
            reason = "rows"
            # `scanned` marks how many queued items this call has
            # already examined and found non-matching, so each item is
            # inspected once per take_batch, not once per coalesced
            # request.  Other workers may remove items while we wait,
            # shifting unexamined items below the mark; those simply
            # coalesce into a later batch instead.
            scanned = 0
            while rows < max_rows:
                index = min(scanned, len(self._items))
                while index < len(self._items) and rows < max_rows:
                    item = self._items[index]
                    if item.batch_key == first.batch_key:
                        del self._items[index]
                        self._not_full.notify()
                        batch.append(item)
                        rows += item.rows
                        oldest = min(oldest, item.enqueued_at)
                        newest = max(newest, item.enqueued_at)
                    else:
                        index += 1
                scanned = index
                if rows >= max_rows:
                    break
                if self._closed:
                    reason = "closed"
                    break
                # A lone request has no gap to read: it waits max_wait.
                quiet = deadline if len(batch) == 1 else newest + (
                    QUIET_GAPS * (newest - oldest) / (len(batch) - 1)
                )
                remaining = min(deadline, quiet) - time.perf_counter()
                if remaining <= 0:
                    reason = "quiet" if quiet < deadline else "deadline"
                    break
                self._not_empty.wait(remaining)
            self.close_reasons[reason] += 1
            return batch

    def collect(self, buffer) -> None:
        """Sample depth and admission counters into a telemetry
        snapshot."""
        buffer.gauge(
            "repro_queue_depth", self.depth,
            help="Requests currently queued",
        )
        buffer.gauge(
            "repro_queue_max_depth", self.max_depth_seen,
            help="High-water queue depth",
        )
        buffer.counter(
            "repro_requests_enqueued_total", self.enqueued,
            help="Requests ever admitted to the queue",
        )
        for reason, count in self.close_reasons.items():
            buffer.counter(
                "repro_batch_close_total", count, reason=reason,
                help="Micro-batches by what ended their linger",
            )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Refuse new requests; queued ones still drain via take_batch."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def drain(self) -> list[Request]:
        """Remove and return everything queued (for failing fast on close)."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            self._not_full.notify_all()
            return items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestQueue(depth={self.depth}/{self.max_requests}, "
            f"closed={self._closed})"
        )
