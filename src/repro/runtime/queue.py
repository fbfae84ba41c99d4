"""A bounded request queue with micro-batch coalescing.

The runtime's admission path: producers :meth:`RequestQueue.put`
normalized point requests (blocking while the queue is full — natural
backpressure toward callers), workers :meth:`RequestQueue.take_batch`
*micro-batches*: the oldest request plus every queued request for the
same (model, op), up to a row budget, waiting for stragglers while
the batch's own arrival rate says one is due, at most ``max_wait``.
A lone request has no batch rate to read; it reads its key's running
mean gap between arrivals (:class:`_Arrivals`) and is dispatched at
once when the next arrival is not due before ``max_wait`` runs out.
Batching is what makes factorized serving pay under point-lookup
traffic — a single fact row rarely repeats a RID, but a few
milliseconds of coalesced traffic almost always does.  A ``put`` wakes
one worker at most: the one lingering on its key, only if the arrival
changes that worker's decision (:class:`_Linger`), or else an idle one.

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

import numpy as np

from repro.errors import ModelError

#: A linger ends once nothing has arrived for this many of the batch's
#: own mean inter-arrival gaps: the burst is over and waiting on is idle
#: time.  2, 4, 8 and 16 read the same on ``runtime_thread_window``.
QUIET_GAPS = 4.0

#: Weight of each new gap in a key's running mean inter-arrival gap
#: (:class:`_Arrivals`), which only a lone request's linger reads.
GAP_WEIGHT = 1 / 8


class Request:
    """One normalized point request, ready to coalesce.

    ``features``/``fks`` are already validated and canonicalized (2-D
    fact features, one int64 array per dimension), so concatenating
    requests of one ``batch_key``, (model, op), is ``np.concatenate``.
    """

    __slots__ = ("batch_key", "features", "fks", "rows", "future",
                 "enqueued_at")

    def __init__(self, batch_key: tuple[str, str], features: np.ndarray,
                 fks: list[np.ndarray], future: Future | None = None,
                 enqueued_at: float | None = None) -> None:
        self.batch_key, self.features, self.fks = batch_key, features, fks
        self.rows = features.shape[0]
        self.future = Future() if future is None else future
        # Stamped at construction — before put() blocks on backpressure —
        # so the queue-wait clock includes time spent waiting for a slot,
        # which is exactly the latency the caller experiences.
        self.enqueued_at = (time.perf_counter() if enqueued_at is None
                            else enqueued_at)

    def wait_seconds(self, now: float | None = None) -> float:
        """Seconds since this request was created (queue wait)."""
        if now is None:
            now = time.perf_counter()
        return max(0.0, now - self.enqueued_at)


class _Arrivals:
    """One batch key's arrival rate, as its puts stamp it: the newest
    ``enqueued_at`` and an exponentially weighted mean of the gaps
    between stamps (``None`` until the key's second request)."""

    __slots__ = ("newest", "gap")

    def __init__(self, stamp: float) -> None:
        self.newest, self.gap = stamp, None

    def arrive(self, stamp: float) -> None:
        # Every put runs this under the queue lock: no max() calls.
        gap = stamp - self.newest
        if gap > 0.0:
            self.newest = stamp
        else:       # two producers can queue out of stamp order
            gap = 0.0
        self.gap = gap if self.gap is None else (
            self.gap + GAP_WEIGHT * (gap - self.gap))

    def none_due_by(self, deadline: float) -> bool:
        """Whether the key's next arrival is not due before ``deadline``."""
        return self.gap is not None and self.newest + self.gap >= deadline


class _Linger:
    """The batch of the one worker lingering on a key, as that key's
    puts see it: as the worker last looked, plus every arrival since.
    Idle workers never claim a lingered key."""

    def __init__(self, lock, max_rows: int) -> None:
        self.wake, self.max_rows = threading.Condition(lock), max_rows

    def arrive(self, request: Request) -> bool:
        """Fold in an arrival; whether it changes the worker's decision."""
        self.rows += request.rows
        self.count += 1
        self.oldest = min(self.oldest, request.enqueued_at)
        self.newest = max(self.newest, request.enqueued_at)
        return self.rows >= self.max_rows or self.quiet() < self.wake_at

    def quiet(self) -> float:
        """The newest stamp plus :data:`QUIET_GAPS` mean gaps (count > 1)."""
        return self.newest + QUIET_GAPS * (self.newest - self.oldest) / (
            self.count - 1)


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
        self._lingers: dict[tuple[str, str], _Linger] = {}
        self._arrivals: dict[tuple[str, str], _Arrivals] = {}
        self._closed = False
        self.enqueued = 0
        self.max_depth_seen = 0
        #: Batches by what closed them: the row cap, the quiet rule, a
        #: lone request whose key sends no partner in time, the
        #: ``max_wait`` deadline, or :meth:`close`.
        self.close_reasons = dict.fromkeys(
            ("rows", "quiet", "sparse", "deadline", "closed"), 0
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
        with self._lock:
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
            arrivals = self._arrivals.get(request.batch_key)
            if arrivals is None:
                self._arrivals[request.batch_key] = _Arrivals(
                    request.enqueued_at)
            else:
                arrivals.arrive(request.enqueued_at)
            # A lingered key's request wakes its lingerer only if it ends
            # the linger sooner; any other wakes one idle worker.
            linger = self._lingers.get(request.batch_key)
            if linger is None:
                self._not_empty.notify()
            elif linger.arrive(request):
                linger.wake.notify()

    # -- consumer side -------------------------------------------------------

    def take_batch(
        self, max_rows: int, max_wait: float
    ) -> list[Request] | None:
        """The next micro-batch, or ``None`` once closed and drained.

        Blocks for the oldest request whose key no worker lingers on,
        then coalesces every queued request sharing its batch key until
        ``max_rows`` total rows are gathered, arrivals pause (nothing
        for :data:`QUIET_GAPS` mean gaps of the batch's own
        ``enqueued_at`` stamps) or ``max_wait`` seconds have passed
        since the first request was claimed.  A lone request has no
        batch gap to read: it is dispatched at once if its key's mean
        gap between arrivals says the next is not due before
        ``max_wait`` runs out, and otherwise (a key's first request
        included) waits for a partner up to ``max_wait``.  Requests
        with other batch keys are left queued, in order, for other
        workers.
        """
        with self._lock:
            while (index := next((
                i for i, item in enumerate(self._items)
                if item.batch_key not in self._lingers
            ), None)) is None:
                if self._closed:    # the rest is lingering workers' to take
                    return None
                self._not_empty.wait()
            first = self._items.pop(index)
            self._not_full.notify()
            key, batch, rows = first.batch_key, [first], first.rows
            # perf_counter, the clock of the enqueued_at stamps.
            deadline, reason = time.perf_counter() + max_wait, "rows"
            # min/max, not first/last: a stamp predates its put(), so
            # two producers can queue out of stamp order.
            oldest = newest = first.enqueued_at
            linger = self._lingers[key] = _Linger(self._lock, max_rows)
            # `scanned` counts the queued items this call has examined
            # and found non-matching (all before `first` are lingered
            # keys'), so each is inspected once per take_batch.  Items
            # other workers shift below the mark while we wait simply
            # coalesce into a later batch instead.
            scanned = index
            while rows < max_rows:
                index, taken = min(scanned, len(self._items)), len(batch)
                while index < len(self._items) and rows < max_rows:
                    item = self._items[index]
                    if item.batch_key == key:
                        del self._items[index]
                        batch.append(item)
                        rows += item.rows
                        oldest = min(oldest, item.enqueued_at)
                        newest = max(newest, item.enqueued_at)
                    else:
                        index += 1
                scanned = index
                self._not_full.notify(len(batch) - taken)
                if rows >= max_rows:
                    break
                if self._closed:
                    reason = "closed"
                    break
                if len(batch) == 1 and self._arrivals[key].none_due_by(
                        deadline):
                    reason = "sparse"
                    break
                linger.rows, linger.count = rows, len(batch)
                linger.oldest, linger.newest = oldest, newest
                # A lone request has no batch gap to read: it waits
                # for its due partner up to max_wait.
                quiet = deadline if len(batch) == 1 else linger.quiet()
                linger.wake_at = min(deadline, quiet)
                remaining = linger.wake_at - time.perf_counter()
                if remaining <= 0:
                    reason = "quiet" if quiet < deadline else "deadline"
                    break
                linger.wake.wait(remaining)
            del self._lingers[key]
            if self._items:
                self._not_empty.notify()
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
            for linger in self._lingers.values():
                linger.wake.notify()

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
