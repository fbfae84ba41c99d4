"""MetricsRegistry: collectors, snapshots, histogram cells, the
training book and the disabled mode."""

import gc
import threading

import numpy as np
import pytest

from repro.errors import ModelError
from repro.obs import (
    HistogramValue,
    MetricsRegistry,
    NULL_TELEMETRY,
    SampleBuffer,
    Telemetry,
    as_telemetry,
)
from repro.obs.metrics import LATENCY_BUCKETS_S, HistogramCell
from repro.obs.training import (
    TrainingBook,
    TrainingRecorder,
    publish_join_index,
)


class TestSamples:
    def test_invalid_name_rejected(self):
        buffer = SampleBuffer()
        with pytest.raises(ModelError, match="metric name"):
            buffer.counter("bad-name", 1)
        with pytest.raises(ModelError, match="metric name"):
            buffer.counter("0leading", 1)

    def test_missing_sample_raises_not_zero(self):
        reg = MetricsRegistry()
        reg.register_collector(
            lambda buffer: buffer.counter("reqs_total", 1, model="a")
        )
        snap = reg.snapshot()
        with pytest.raises(ModelError, match="no sample"):
            snap.value("reqs_total", model="ghost")
        assert snap.get("reqs_total", default=-1.0, model="ghost") == -1.0


class TestHistogramCell:
    def test_bucket_boundaries_le_semantics(self):
        h = HistogramCell((1.0, 2.0, 4.0))
        # Exactly on a bound counts into that bound's bucket.
        for value in (0.5, 1.0, 2.0, 3.0, 4.0, 99.0):
            h.observe(value)
        hist = h.value()
        assert isinstance(hist, HistogramValue)
        assert hist.counts == (2, 1, 2, 1)     # (<=1, <=2, <=4, +Inf)
        assert hist.cumulative == (2, 3, 5, 6)
        assert hist.count == 6
        assert hist.sum == pytest.approx(0.5 + 1 + 2 + 3 + 4 + 99)

    def test_observe_matches_a_scan_of_the_bounds(self):
        # The bucket is the first bound >= the value; bounds, their
        # neighbours and values outside the ladder included.
        buckets = LATENCY_BUCKETS_S
        rng = np.random.default_rng(0)
        values = [
            *buckets,
            *(np.nextafter(b, np.inf) for b in buckets),
            *(np.nextafter(b, -np.inf) for b in buckets),
            *rng.uniform(-1.0, 12.0, size=200),
            0.0, -5.0, 1e9,
        ]
        cell = HistogramCell(buckets)
        expected = [0] * (len(buckets) + 1)
        for value in values:
            cell.observe(float(value))
            index = next(
                (i for i, bound in enumerate(buckets) if value <= bound),
                len(buckets),
            )
            expected[index] += 1
        assert list(cell.value().counts) == expected
        assert cell.value().count == len(values)

    def test_unsorted_buckets_rejected(self):
        # The bucket search assumes an ascending ladder: a shuffled or
        # repeated one would count into the wrong buckets silently.
        for buckets in ((2.0, 1.0), (1.0, 1.0, 2.0), ()):
            with pytest.raises(ModelError, match="ascending"):
                HistogramCell(buckets)


class TestCollectors:
    def test_collector_sampled_per_snapshot(self):
        reg = MetricsRegistry()
        state = {"n": 1}

        def collect(buffer):
            buffer.gauge("component_n", state["n"])
            buffer.counter("component_events_total", state["n"] * 10)

        reg.register_collector(collect)
        assert reg.snapshot().value("component_n") == 1.0
        state["n"] = 7
        snap = reg.snapshot()
        assert snap.value("component_n") == 7.0
        assert snap.value("component_events_total") == 70.0

    def test_unregister(self):
        reg = MetricsRegistry()

        def collect(buffer):
            buffer.gauge("x", 1)

        reg.register_collector(collect)
        reg.unregister_collector(collect)
        assert reg.snapshot().samples == ()

    def test_bound_method_collector_does_not_pin_component(self):
        reg = MetricsRegistry()

        class Component:
            def collect(self, buffer):
                buffer.gauge("alive", 1)

        component = Component()
        reg.register_collector(component.collect)
        assert reg.snapshot().value("alive") == 1.0
        del component
        gc.collect()
        # The dead weakref is pruned; sampling just stops.
        assert reg.snapshot().samples == ()

    def test_collector_may_call_the_registry(self):
        # Collectors run outside the registry lock, so one that calls
        # back into its registry (here: detaching itself) cannot
        # deadlock the snapshot that runs it.
        reg = MetricsRegistry()

        def collect(buffer):
            reg.unregister_collector(collect)
            buffer.gauge("x", 1)

        reg.register_collector(collect)
        assert reg.snapshot().value("x") == 1.0
        assert reg.snapshot().samples == ()


class TestTrainingBook:
    def test_counter_accumulates(self):
        # Fits add up by algorithm; one algorithm's series never
        # touches another's.
        book, reg = TrainingBook(), MetricsRegistry()
        reg.register_collector(book.collect)
        book.step("F-GMM", 0.002, 1.5)
        book.step("F-GMM", 0.003, 2.0)
        book.step("F-NN", 0.010, 4.0)
        book.join_index("F-NN", {"bytes": 64, "passes_replayed": 2})
        book.join_index("F-NN", {"bytes": 96, "passes_replayed": 3})
        snap = reg.snapshot()
        steps = "repro_training_iterations_total"
        assert snap.value(steps, algorithm="F-GMM") == 2.0
        assert snap.value(steps, algorithm="F-NN") == 1.0
        seconds = snap.value(
            "repro_training_iteration_seconds", algorithm="F-GMM"
        )
        assert seconds.count == 2
        assert seconds.sum == pytest.approx(0.005)
        # Gauges hold the latest reading, counters the running total.
        assert snap.value(
            "repro_training_dedup_ratio", algorithm="F-GMM"
        ) == 2.0
        assert snap.value(
            "repro_training_join_index_bytes", algorithm="F-NN"
        ) == 96.0
        assert snap.value(
            "repro_training_join_index_replays_total", algorithm="F-NN"
        ) == 5.0
        # F-GMM booked no join index, so it has no such series.
        assert len(snap.family("repro_training_join_index_bytes")) == 1

    def test_default_buckets_are_the_latency_ladder(self):
        tel = Telemetry()
        TrainingRecorder("F-NN", tel).step_done(0.5)
        hist = tel.snapshot().value(
            "repro_training_iteration_seconds", algorithm="F-NN"
        )
        assert hist.buckets == LATENCY_BUCKETS_S
        assert hist.count == 1

    def test_a_disabled_telemetry_books_nothing(self):
        tel = Telemetry(enabled=False)
        assert tel.training is None
        recorder = TrainingRecorder("F-GMM", tel)
        recorder.step_done(0.25)
        stats = {"bytes": 8, "passes_replayed": 1}
        assert publish_join_index(tel, "F-GMM", stats) is stats
        # The fit's own series are kept either way.
        assert recorder.step_seconds == [0.25]
        assert tel.snapshot().samples == ()


class TestThreadSafety:
    def test_concurrent_increments_are_lossless(self):
        book, reg = TrainingBook(), MetricsRegistry()
        reg.register_collector(book.collect)
        threads = 8
        per_thread = 2000
        barrier = threading.Barrier(threads)

        def work(index):
            barrier.wait()
            for i in range(per_thread):
                book.step(f"a{index % 2}", (i % 3) * 0.5, 1.0)

        pool = [
            threading.Thread(target=work, args=(index,))
            for index in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        snap = reg.snapshot()
        for algorithm in ("a0", "a1"):
            assert snap.value(
                "repro_training_iterations_total", algorithm=algorithm
            ) == threads // 2 * per_thread
            hist = snap.value(
                "repro_training_iteration_seconds", algorithm=algorithm
            )
            assert hist.count == threads // 2 * per_thread
            assert sum(hist.counts) == hist.count

    def test_snapshot_under_writer_fire_is_consistent(self):
        # A step books its count and its seconds together; every
        # snapshot (one hold of the book's lock) must see them equal.
        book, reg = TrainingBook(), MetricsRegistry()
        reg.register_collector(book.collect)
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                book.step("F-GMM", 0.001, 1.0)

        pool = [threading.Thread(target=writer) for _ in range(4)]
        for t in pool:
            t.start()
        try:
            for _ in range(200):
                snap = reg.snapshot()
                steps = snap.get(
                    "repro_training_iterations_total", algorithm="F-GMM"
                )
                hist = snap.get(
                    "repro_training_iteration_seconds", default=None,
                    algorithm="F-GMM",
                )
                assert steps == (0.0 if hist is None else hist.count)
        finally:
            stop.set()
            for t in pool:
                t.join()


class TestDisabled:
    def test_disabled_registry_ignores_collectors(self):
        # NULL_TELEMETRY is module-level: registrations must not
        # accumulate references across the process lifetime.
        reg = MetricsRegistry(enabled=False)
        reg.register_collector(lambda buffer: buffer.gauge("x", 1))
        assert reg._collectors == []

    def test_null_telemetry_is_disabled(self):
        assert not NULL_TELEMETRY.enabled
        assert NULL_TELEMETRY.snapshot().samples == ()
        assert NULL_TELEMETRY.prometheus() == "\n"
        # Nothing but /metrics reads the training book: keep none.
        assert NULL_TELEMETRY.training is None

    def test_as_telemetry_coercions(self):
        assert as_telemetry(None) is NULL_TELEMETRY
        assert as_telemetry(False) is NULL_TELEMETRY
        fresh = as_telemetry(True)
        assert fresh.enabled and fresh is not NULL_TELEMETRY
        tel = Telemetry()
        assert as_telemetry(tel) is tel
        with pytest.raises(TypeError, match="telemetry must be"):
            as_telemetry("yes")
