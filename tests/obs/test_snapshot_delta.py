"""Windowed telemetry: MetricsSnapshot.delta, HistogramValue.quantile,
and the tracer's per-span-name aggregates — the primitives the scenario
harness (repro.scenarios) asserts through."""

import json
import math

import pytest

from repro.errors import ModelError
from repro.obs import Telemetry, Tracer
from repro.obs.metrics import HistogramCell, HistogramValue, MetricsRegistry


def sampling(collect) -> MetricsRegistry:
    """A registry whose only collector is ``collect``."""
    registry = MetricsRegistry(enabled=True)
    registry.register_collector(collect)
    return registry


class Traffic:
    """A component's books, and the collector that samples them."""

    def __init__(self):
        self.hits = {"a": 10, "b": 4}
        self.resident_bytes = 100.0
        self.wait = HistogramCell((0.1, 1.0))
        self.wait.observe(0.05)

    def collect(self, buffer):
        for model, count in self.hits.items():
            buffer.counter("t_hits_total", count, model=model)
        buffer.gauge("t_resident_bytes", self.resident_bytes)
        buffer.histogram("t_wait_seconds", self.wait.value())


def registry_with_traffic():
    traffic = Traffic()
    return sampling(traffic.collect), traffic


class TestSnapshotDelta:
    def test_counters_subtract_per_series(self):
        registry, traffic = registry_with_traffic()
        earlier = registry.snapshot()
        traffic.hits["a"] += 7
        window = registry.snapshot().delta(earlier)
        assert window.value("t_hits_total", model="a") == 7.0
        assert window.value("t_hits_total", model="b") == 0.0

    def test_series_absent_earlier_keeps_full_value(self):
        registry, traffic = registry_with_traffic()
        earlier = registry.snapshot()
        traffic.hits["new"] = 3
        window = registry.snapshot().delta(earlier)
        assert window.value("t_hits_total", model="new") == 3.0

    def test_gauges_keep_the_later_reading(self):
        registry, traffic = registry_with_traffic()
        earlier = registry.snapshot()
        traffic.resident_bytes = 42.0
        window = registry.snapshot().delta(earlier)
        # A gauge describes an instant, not a window: no subtraction.
        assert window.value("t_resident_bytes") == 42.0

    def test_series_only_in_earlier_is_omitted(self):
        registry, _ = registry_with_traffic()
        earlier = registry.snapshot()
        fresh = sampling(lambda buffer: buffer.counter("t_other_total", 1))
        window = fresh.snapshot().delta(earlier)
        assert window.family("t_hits_total") == []
        assert window.value("t_other_total") == 1.0

    def test_swapped_arguments_raise(self):
        registry, traffic = registry_with_traffic()
        earlier = registry.snapshot()
        traffic.hits["a"] += 5
        later = registry.snapshot()
        with pytest.raises(ModelError, match="decreased"):
            earlier.delta(later)

    def test_histogram_delta_windows_the_quantile(self):
        registry, traffic = registry_with_traffic()
        earlier = registry.snapshot()
        # Only this window's observations land in the +Inf bucket.
        traffic.wait.observe(5.0)
        window = registry.snapshot().delta(earlier)
        value = window.value("t_wait_seconds")
        assert value.count == 1
        assert value.quantile(0.5) == 1.0  # clamped to last finite bound

    def test_histogram_ladder_mismatch_raises(self):
        def ladder(*buckets):
            cell = HistogramCell(buckets)
            cell.observe(0.05)
            return sampling(
                lambda buffer: buffer.histogram("t_h_seconds", cell.value())
            )

        a = ladder(0.1, 1.0)
        b = ladder(0.2, 2.0)
        with pytest.raises(ModelError, match="bucket ladders"):
            b.snapshot().delta(a.snapshot())


class TestHistogramQuantile:
    def test_linear_interpolation_inside_bucket(self):
        value = HistogramValue(
            buckets=(1.0, 2.0), counts=(2, 2, 0), sum=5.0, count=4
        )
        assert value.quantile(0.25) == pytest.approx(0.5)
        assert value.quantile(0.75) == pytest.approx(1.5)

    def test_inf_bucket_clamps_to_last_finite_bound(self):
        value = HistogramValue(
            buckets=(1.0, 2.0), counts=(0, 0, 3), sum=30.0, count=3
        )
        assert value.quantile(0.5) == 2.0

    def test_empty_histogram_is_nan(self):
        value = HistogramValue(
            buckets=(1.0,), counts=(0, 0), sum=0.0, count=0
        )
        assert math.isnan(value.quantile(0.5))

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 2.0])
    def test_q_outside_open_interval_raises(self, q):
        value = HistogramValue(
            buckets=(1.0,), counts=(1, 0), sum=0.5, count=1
        )
        with pytest.raises(ModelError, match="quantile q"):
            value.quantile(q)

    def test_cumulative_ends_at_count(self):
        value = HistogramValue(
            buckets=(1.0, 2.0), counts=(2, 1, 3), sum=12.0, count=6
        )
        assert value.cumulative == (2, 3, 6)


class TestSpanAggregates:
    def test_count_sum_and_quantiles_per_name(self):
        tracer = Tracer()
        for _ in range(4):
            with tracer.trace("serve.batch") as root:
                root.record("queue.wait", 10.0, 10.5)
        aggregates = tracer.span_aggregates()
        assert set(aggregates) == {"serve.batch", "queue.wait"}
        wait = aggregates["queue.wait"]
        assert wait["count"] == 4
        assert wait["sum_s"] == pytest.approx(2.0)
        assert wait["p50_s"] == pytest.approx(0.5)
        assert wait["p95_s"] == pytest.approx(0.5)

    def test_snapshot_json_carries_the_same_spans(self):
        telemetry = Telemetry(enabled=True)
        with telemetry.tracer.trace("serve.batch"):
            pass
        document = json.loads(telemetry.to_json())
        assert document["spans"]["serve.batch"]["count"] == 1
        assert document["spans"] == telemetry.span_aggregates()
