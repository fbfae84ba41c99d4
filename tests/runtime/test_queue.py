"""RequestQueue: bounded admission and micro-batch coalescing."""

import threading
import time

import numpy as np
import pytest

from repro.errors import ModelError
from repro.runtime.queue import Request, RequestQueue


def a_request(name="m", op="predict", rows=4):
    return Request(
        (name, op),
        np.zeros((rows, 2)),
        [np.zeros(rows, dtype=np.int64)],
    )


class TestAdmission:
    def test_fifo_within_a_key(self):
        queue = RequestQueue(8)
        first, second = a_request(rows=1), a_request(rows=2)
        queue.put(first)
        queue.put(second)
        batch = queue.take_batch(max_rows=100, max_wait=0.0)
        assert batch == [first, second]

    def test_depth_and_counters(self):
        queue = RequestQueue(8)
        for _ in range(3):
            queue.put(a_request())
        assert queue.depth == 3
        assert queue.enqueued == 3
        assert queue.max_depth_seen == 3
        queue.take_batch(max_rows=1, max_wait=0.0)
        assert queue.depth == 2
        assert queue.max_depth_seen == 3

    def test_full_queue_times_out(self):
        queue = RequestQueue(1)
        queue.put(a_request())
        with pytest.raises(ModelError, match="full"):
            queue.put(a_request(), timeout=0.01)

    def test_full_queue_unblocks_when_drained(self):
        queue = RequestQueue(1)
        queue.put(a_request())
        done = threading.Event()

        def producer():
            queue.put(a_request(), timeout=5.0)
            done.set()

        thread = threading.Thread(target=producer)
        thread.start()
        queue.take_batch(max_rows=1, max_wait=0.0)
        assert done.wait(5.0)
        thread.join()

    def test_put_after_close_rejected(self):
        queue = RequestQueue(4)
        queue.close()
        with pytest.raises(ModelError, match="closed"):
            queue.put(a_request())

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(ModelError, match="depth"):
            RequestQueue(0)


class TestCoalescing:
    def test_same_key_requests_coalesce(self):
        queue = RequestQueue(16)
        for _ in range(5):
            queue.put(a_request(rows=3))
        batch = queue.take_batch(max_rows=100, max_wait=0.0)
        assert len(batch) == 5
        assert sum(r.rows for r in batch) == 15
        assert queue.depth == 0

    def test_max_rows_bounds_the_batch(self):
        queue = RequestQueue(16)
        for _ in range(5):
            queue.put(a_request(rows=3))
        batch = queue.take_batch(max_rows=7, max_wait=0.0)
        # Stop at the first request that reaches/overruns the budget.
        assert len(batch) == 3
        assert queue.depth == 2

    def test_other_keys_left_queued_in_order(self):
        queue = RequestQueue(16)
        queue.put(a_request("a"))
        queue.put(a_request("b", rows=1))
        queue.put(a_request("a"))
        queue.put(a_request("b", rows=2))
        batch = queue.take_batch(max_rows=100, max_wait=0.0)
        assert all(r.batch_key == ("a", "predict") for r in batch)
        assert len(batch) == 2
        remainder = queue.take_batch(max_rows=100, max_wait=0.0)
        assert [r.rows for r in remainder] == [1, 2]

    def test_predict_and_score_never_mix(self):
        queue = RequestQueue(16)
        queue.put(a_request("m", op="predict"))
        queue.put(a_request("m", op="score"))
        batch = queue.take_batch(max_rows=100, max_wait=0.0)
        assert len(batch) == 1
        assert batch[0].batch_key == ("m", "predict")

    def test_lingering_collects_stragglers(self):
        queue = RequestQueue(16)
        queue.put(a_request(rows=1))

        def late_producer():
            # the consumer has claimed the first request and lingers
            wait_until(lambda: queue.depth == 0)
            queue.put(a_request(rows=1))

        thread = threading.Thread(target=late_producer)
        thread.start()
        batch = queue.take_batch(max_rows=100, max_wait=1.0)
        thread.join()
        assert len(batch) == 2

    def test_zero_wait_returns_immediately(self):
        queue = RequestQueue(16)
        queue.put(a_request())
        tick = time.perf_counter()
        batch = queue.take_batch(max_rows=10**6, max_wait=0.0)
        assert time.perf_counter() - tick < 0.5
        assert len(batch) == 1


class TestLifecycle:
    def test_take_batch_returns_none_when_closed_and_drained(self):
        queue = RequestQueue(4)
        queue.put(a_request())
        queue.close()
        assert queue.take_batch(max_rows=10, max_wait=0.0) is not None
        assert queue.take_batch(max_rows=10, max_wait=0.0) is None

    def test_close_wakes_blocked_consumer(self):
        queue = RequestQueue(4)
        results = []

        def consumer():
            results.append(queue.take_batch(max_rows=10, max_wait=0.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        # Condition._waiters: the consumer is blocked in wait()
        wait_until(lambda: len(queue._not_empty._waiters) == 1)
        queue.close()
        thread.join(5.0)
        assert results == [None]

    def test_drain_empties_the_queue(self):
        queue = RequestQueue(4)
        queue.put(a_request())
        queue.put(a_request("b"))
        drained = queue.drain()
        assert len(drained) == 2
        assert queue.depth == 0


class TestWorkConservingLinger:
    """A linger ends when the row cap fills, when arrivals pause for
    ``QUIET_GAPS`` of the batch's own mean gaps, or at ``max_wait`` —
    whichever is first — and the queue counts which it was.  Real
    clocks, wide margins."""

    @staticmethod
    def closed_by(queue):
        return {k: v for k, v in queue.close_reasons.items() if v}

    @staticmethod
    def paced(queue, gap, count=None, stop=None):
        """Put requests ``gap`` seconds apart from a thread (``count``
        of them, or until ``stop`` is set); ``join()`` returns the
        ``perf_counter`` time of each put."""
        puts = []

        def produce():
            start = time.perf_counter()
            while len(puts) != count and not (stop and stop.is_set()):
                delay = start + len(puts) * gap - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                queue.put(a_request(rows=1))
                puts.append(time.perf_counter())

        thread = threading.Thread(target=produce)
        thread.start()

        def join():
            thread.join(10.0)
            assert not thread.is_alive()
            return puts

        return join

    def test_a_burst_dispatches_when_it_ends(self):
        queue = RequestQueue(16)
        burst = [a_request(rows=1) for _ in range(8)]
        for request in burst:
            queue.put(request)
        tick = time.perf_counter()
        batch = queue.take_batch(max_rows=10**6, max_wait=5.0)
        assert time.perf_counter() - tick < 0.5
        assert batch == burst
        assert self.closed_by(queue) == {"quiet": 1}

    def test_a_lone_request_waits_out_max_wait(self):
        queue = RequestQueue(16)
        queue.put(a_request())
        tick = time.perf_counter()
        batch = queue.take_batch(max_rows=10**6, max_wait=0.2)
        assert 0.18 <= time.perf_counter() - tick < 2.0
        assert len(batch) == 1
        assert self.closed_by(queue) == {"deadline": 1}

    def test_steady_arrivals_coalesce_until_they_stop(self):
        # A producer the host stalled for longer than the rule's
        # patience says nothing about the rule: draw again.
        for _ in range(5):
            queue = RequestQueue(64)
            join = self.paced(queue, gap=0.005, count=10)
            batch = queue.take_batch(max_rows=10**6, max_wait=1.0)
            returned = time.perf_counter()
            puts = join()
            if max(np.diff(puts)) < 0.012:
                break
            queue.drain()
        else:
            pytest.skip("host too noisy to pace 5 ms arrivals")
        assert len(batch) == 10
        assert returned - puts[-1] < 0.1
        assert self.closed_by(queue) == {"quiet": 1}

    def test_endless_arrivals_stop_at_the_deadline(self):
        for _ in range(5):
            queue = RequestQueue(1024)
            stop = threading.Event()
            join = self.paced(queue, gap=0.01, stop=stop)
            tick = time.perf_counter()
            batch = queue.take_batch(max_rows=10**6, max_wait=0.05)
            elapsed = time.perf_counter() - tick
            stop.set()
            puts = join()
            if max(np.diff(puts[:len(batch) + 1], prepend=tick)) < 0.025:
                break
        else:
            pytest.skip("host too noisy to pace 10 ms arrivals")
        assert 0.045 <= elapsed < 0.3
        assert 3 <= len(batch) <= 8
        assert self.closed_by(queue) == {"deadline": 1}

    def test_the_row_cap_closes_first(self):
        queue = RequestQueue(16)
        for _ in range(4):
            queue.put(a_request(rows=4))
        tick = time.perf_counter()
        batch = queue.take_batch(max_rows=8, max_wait=5.0)
        assert time.perf_counter() - tick < 0.5
        assert len(batch) == 2
        assert self.closed_by(queue) == {"rows": 1}
        # A first request that alone fills the cap never lingers.
        assert len(queue.take_batch(max_rows=4, max_wait=5.0)) == 1
        assert self.closed_by(queue) == {"rows": 2}

    @pytest.mark.parametrize("age", [0.0, 30.0], ids=["fresh", "stale"])
    def test_stamps_out_of_arrival_order(self, age):
        # A stamp is taken at construction, before put() may block, so
        # two producers can queue in the opposite order of their
        # stamps — and long after them.
        queue = RequestQueue(16)
        requests = [a_request(rows=1) for _ in range(8)]
        for request in requests:
            request.enqueued_at -= age
        for request in reversed(requests):
            queue.put(request)
        tick = time.perf_counter()
        batch = queue.take_batch(max_rows=10**6, max_wait=5.0)
        assert time.perf_counter() - tick < 0.5
        assert batch == requests[::-1]
        assert self.closed_by(queue) == {"quiet": 1}

    def test_close_ends_a_linger(self):
        queue = RequestQueue(16)
        queue.put(a_request())
        closer = threading.Timer(0.02, queue.close)
        closer.start()
        tick = time.perf_counter()
        batch = queue.take_batch(max_rows=10**6, max_wait=5.0)
        closer.join(5.0)
        assert time.perf_counter() - tick < 2.0
        assert len(batch) == 1
        assert self.closed_by(queue) == {"closed": 1}

    def test_close_reasons_are_exported(self):
        from repro.obs.metrics import MetricsRegistry

        queue = RequestQueue(16)
        queue.put(a_request())
        queue.take_batch(max_rows=1, max_wait=0.0)
        registry = MetricsRegistry()
        registry.register_collector(queue.collect)
        snapshot = registry.snapshot()
        assert snapshot.value("repro_batch_close_total", reason="rows") == 1
        assert snapshot.value("repro_batch_close_total", reason="quiet") == 0


def wait_until(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, "timed out"
        time.sleep(0.0005)


class TestScriptedLingers:
    """Each schedule closes with the reason and the batch that the rule
    in docs/tuning.md, "How a linger ends", gives — and when it gives.
    Stamps are set directly, relative to the call; a request stamped
    in the past is queued before the call, any other is put at its
    stamp by a producer thread."""

    # name: (stamps ms, rows per request, max_rows, max_wait s,
    #        close() at ms, reason, requests, closes at ms, before ms)
    CASES = {
        "a burst": (
            range(-8, 0), 1, 10**6, 5.0, None, "quiet", 8, 3, 500,
        ),
        "steady arrivals": (
            range(0, 50, 5), 1, 10**6, 5.0, None, "quiet", 10, 65, 500,
        ),
        # 0 and 10 put the quiet point at 50; 11 pulls it to 33.
        "an arrival pulls the quiet point earlier": (
            (0, 10, 11), 1, 10**6, 5.0, None, "quiet", 3, 33, 50,
        ),
        # A stale first stamp puts the quiet point past max_wait, so
        # only the row cap can end the linger before it.
        "the row cap": (
            (-5000, 10), 4, 8, 1.0, None, "rows", 2, 10, 500,
        ),
        "a lone request": (
            (0,), 1, 10**6, 0.2, None, "deadline", 1, 200, 700,
        ),
        "close() during a linger": (
            (0,), 1, 10**6, 5.0, 20, "closed", 1, 20, 500,
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_closes_as_the_rule_says(self, name):
        (stamps, rows, max_rows, max_wait, close_at, reason, count,
         closes_at, before) = self.CASES[name]
        # A producer the host stalled says nothing about the rule:
        # draw again.
        for _ in range(5):
            queue = RequestQueue(64)
            start = time.perf_counter()
            requests = [a_request(rows=rows) for _ in stamps]
            for request, stamp in zip(requests, stamps):
                request.enqueued_at = start + stamp / 1000
            lateness = []

            def produce():
                for request in requests:
                    delay = request.enqueued_at - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    queue.put(request)
                    lateness.append(
                        time.perf_counter() - max(request.enqueued_at, start)
                    )

            past = sum(stamp <= 0 for stamp in stamps)
            for request in requests[:past]:
                queue.put(request)
            requests = requests[past:]
            producer = threading.Thread(target=produce)
            producer.start()
            if close_at is not None:
                closer = threading.Timer(
                    start + close_at / 1000 - time.perf_counter(), queue.close
                )
                closer.start()
            batch = queue.take_batch(max_rows=max_rows, max_wait=max_wait)
            returned = (time.perf_counter() - start) * 1000
            producer.join(5.0)
            assert not producer.is_alive()
            if close_at is not None:
                closer.join(5.0)
            if max(lateness, default=0.0) < 0.005:
                break
        else:
            pytest.skip("host too noisy to pace the schedule")
        assert len(batch) == count
        assert all(request.rows == rows for request in batch)
        assert TestWorkConservingLinger.closed_by(queue) == {reason: 1}
        assert closes_at <= returned < before


class CountingCondition(threading.Condition):
    """A condition that records which thread each ``wait`` returned to."""

    def __init__(self, lock):
        super().__init__(lock)
        self.returns = []

    def wait(self, timeout=None):
        try:
            return super().wait(timeout)
        finally:
            self.returns.append(threading.get_ident())


class TestWakeUps:
    """A put wakes one worker at most: the one lingering on its key,
    only when the arrival changes that worker's decision, or else one
    idle worker."""

    @staticmethod
    def consumers(queue, count, max_rows, max_wait):
        """``count`` threads each taking one batch; ``join()`` returns
        ``{thread ident: batch}``, ``join(ident, timeout)`` once that
        one thread has finished."""
        taken = {}

        def consume():
            batch = queue.take_batch(max_rows=max_rows, max_wait=max_wait)
            taken[threading.get_ident()] = batch

        threads = [
            threading.Thread(target=consume, daemon=True)
            for _ in range(count)
        ]
        for thread in threads:
            thread.start()

        def join(ident=None, timeout=10.0):
            for thread in threads:
                if ident in (None, thread.ident):
                    thread.join(timeout)
                    assert not thread.is_alive()
            return taken

        return taken, join

    @staticmethod
    def idle(queue, waiting):
        # Condition._waiters: the threads blocked in wait() right now.
        wait_until(lambda: len(queue._not_empty._waiters) == waiting)

    def test_same_key_puts_leave_the_idle_consumer_asleep(self):
        queue = RequestQueue(64)
        queue._not_empty = counting = CountingCondition(queue._lock)
        taken, join = self.consumers(queue, 2, 10**6, 5.0)
        self.idle(queue, 2)
        queue.put(a_request(rows=1))
        wait_until(lambda: queue.depth == 0)    # claimed: lingering
        (lingerer,) = counting.returns
        for _ in range(10):
            queue.put(a_request(rows=1))
            time.sleep(0.001)
        # Its linger may run to max_wait (5 s) on a loaded host: wait
        # for the thread itself, well past that.
        join(lingerer, timeout=15.0)
        assert len(taken[lingerer]) == 11
        # Asleep all along: not one wait() returned to the other.
        assert counting.returns == [lingerer]
        queue.close()
        batches = join()
        assert [batch for ident, batch in batches.items()
                if ident != lingerer] == [None]

    def test_another_key_is_taken_inside_the_linger(self):
        queue = RequestQueue(64)
        taken, join = self.consumers(queue, 2, 4, 5.0)
        self.idle(queue, 2)
        queue.put(a_request("a", rows=1))
        wait_until(lambda: queue.depth == 0)    # claimed: lingering
        tick = time.perf_counter()
        other = a_request("b", rows=4)      # fills the row cap at once
        queue.put(other)
        wait_until(lambda: [other] in taken.values(), timeout=10.0)
        assert time.perf_counter() - tick < 0.5     # max_wait is 5 s
        assert len(taken) == 1
        queue.close()
        batches = join()
        assert sorted(len(batch) for batch in batches.values()) == [1, 1]
        assert TestWorkConservingLinger.closed_by(queue) == {
            "rows": 1, "closed": 1,
        }

    def test_two_lingerers_each_coalesce_their_own_key(self):
        # Stamps half a second apart keep both quiet points past
        # max_wait: each linger ends at its deadline with all its puts.
        queue = RequestQueue(64)
        taken, join = self.consumers(queue, 2, 10**6, 0.3)
        self.idle(queue, 2)
        start = time.perf_counter()
        puts = {"a": [], "b": []}
        for i in range(6):
            for name in ("a", "b"):
                request = a_request(name, rows=1)
                request.enqueued_at = start + 0.5 * i
                queue.put(request)
                puts[name].append(request)
                if i == 0:      # claimed: one consumer lingers per key
                    wait_until(lambda: queue.depth == 0)
        batches = sorted(join().values(), key=lambda b: b[0].batch_key)
        assert batches == [puts["a"], puts["b"]]
        assert TestWorkConservingLinger.closed_by(queue) == {"deadline": 2}

    def test_an_idle_consumer_leaves_a_lingered_key_alone(self):
        # The first stamp is stale, so the second arrival moves no
        # quiet point before max_wait: the lingerer sleeps on, and the
        # idle consumer, woken for "b", must not claim the queued "a".
        queue = RequestQueue(64)
        taken, join = self.consumers(queue, 2, 4, 5.0)
        self.idle(queue, 2)
        first, second = a_request("a", rows=1), a_request("a", rows=1)
        first.enqueued_at -= 30.0
        queue.put(first)
        wait_until(lambda: queue.depth == 0)    # claimed: lingering
        queue.put(second)
        other = a_request("b", rows=4)
        queue.put(other)
        wait_until(lambda: [other] in taken.values())
        assert queue.depth == 1                 # "a" waits for its lingerer
        queue.close()
        assert sorted(join().values(), key=len) == [[other], [first, second]]

    def test_a_lingerer_leaving_requests_behind_wakes_an_idle_consumer(self):
        queue = RequestQueue(64)
        taken, join = self.consumers(queue, 2, 3, 5.0)
        self.idle(queue, 2)
        requests = [a_request(rows=rows) for rows in (1, 2, 1)]
        requests[0].enqueued_at -= 30.0         # no quiet point before 5 s
        queue.put(requests[0])
        wait_until(lambda: queue.depth == 0)    # claimed: lingering
        queue.put(requests[1])                  # fills the cap of 3 rows
        queue.put(requests[2])                  # one too many
        wait_until(lambda: requests[:2] in taken.values())
        wait_until(lambda: queue.depth == 0)    # the other consumer's now
        queue.close()
        assert sorted(join().values(), key=len) == [
            requests[2:], requests[:2],
        ]


class TestSparseKeys:
    """A lone request reads its key's running mean gap between arrivals
    and is dispatched at once (``sparse``) when the next arrival is not
    due before ``max_wait``.  The history is put, and taken, before the
    call, with stamps set directly; only the last request is fresh."""

    @staticmethod
    def history(queue, name, stamps):
        """Put and take one request per stamp, each a lone batch."""
        for stamp in stamps:
            request = a_request(name, rows=1)
            request.enqueued_at = stamp
            queue.put(request)
            assert queue.take_batch(max_rows=10**6, max_wait=0.0) == [
                request
            ]

    @staticmethod
    def lone(queue, name, max_wait):
        """Put one fresh request and take it: ``(seconds, reason)``."""
        before = dict(queue.close_reasons)
        request = a_request(name, rows=1)
        queue.put(request)
        tick = time.perf_counter()
        assert queue.take_batch(max_rows=10**6, max_wait=max_wait) == [
            request
        ]
        elapsed = time.perf_counter() - tick
        (reason,) = [reason for reason, count in queue.close_reasons.items()
                     if count != before[reason]]
        return elapsed, reason

    def test_paced_lone_requests_close_sparse(self):
        max_wait, queue = 1.0, RequestQueue(64)
        now = time.perf_counter()
        self.history(queue, "m", [now - 2 * max_wait * i
                                  for i in range(4, 0, -1)])
        elapsed, reason = self.lone(queue, "m", max_wait)
        assert reason == "sparse"
        assert elapsed < 0.1 * max_wait

    def test_a_keys_first_request_closes_at_the_deadline(self):
        max_wait, queue = 0.2, RequestQueue(64)
        now = time.perf_counter()
        self.history(queue, "other", [now - 2 * max_wait * i
                                      for i in range(4, 0, -1)])
        elapsed, reason = self.lone(queue, "m", max_wait)
        assert reason == "deadline"
        assert 0.9 * max_wait <= elapsed < 10 * max_wait

    def test_a_burst_after_a_pause_coalesces_whole(self):
        max_wait, queue = 1.0, RequestQueue(128)
        now = time.perf_counter()
        self.history(queue, "m", [now - 2 * max_wait * i
                                  for i in range(4, 0, -1)])
        burst = [a_request(rows=1) for _ in range(64)]
        for i, request in enumerate(burst):
            request.enqueued_at = now + i * 1e-4
            queue.put(request)
        tick = time.perf_counter()
        batch = queue.take_batch(max_rows=10**6, max_wait=max_wait)
        assert time.perf_counter() - tick < 0.5 * max_wait
        assert batch == burst
        assert queue.close_reasons["quiet"] == 1
        assert queue.close_reasons["sparse"] == 0

    @pytest.mark.parametrize("lone", ["slow", "fast"])
    def test_each_key_reads_its_own_rate(self, lone):
        # The other key's history is put last, so a rate shared across
        # keys would read that key's gaps, not the lone one's.
        max_wait, queue = 0.2, RequestQueue(64)
        now = time.perf_counter()
        stamps = {
            "slow": [now - 2 * max_wait * i for i in range(4, 0, -1)],
            "fast": [now - 0.01 * max_wait * i for i in range(8, 0, -1)],
        }
        for name in sorted(stamps, key=lambda name: name != lone):
            self.history(queue, name, stamps[name])
        elapsed, reason = self.lone(queue, lone, max_wait)
        if lone == "slow":      # the fast key does not hold it back
            assert reason == "sparse"
            assert elapsed < 0.1 * max_wait
        else:                   # the slow key does not send it early
            assert reason == "deadline"
            assert 0.9 * max_wait <= elapsed < 10 * max_wait

    def test_reversed_stamps_never_give_a_negative_gap(self):
        queue = RequestQueue(64)
        now = time.perf_counter()
        stamps = [now - 0.01 * i for i in range(8)]
        self.history(queue, "m", stamps)
        arrivals = queue._arrivals[("m", "predict")]
        assert arrivals.gap == 0.0
        assert arrivals.newest == now
        # A later arrival's gap runs from the newest stamp, not the last.
        self.history(queue, "m", [now + 0.08])
        assert arrivals.gap == pytest.approx(0.01)
        assert arrivals.newest == now + 0.08
