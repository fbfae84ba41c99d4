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
            time.sleep(0.02)
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
        time.sleep(0.02)
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
