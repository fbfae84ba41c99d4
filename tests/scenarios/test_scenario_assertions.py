"""Assertion evaluation semantics over hand-built telemetry windows."""

import numpy as np
import pytest

from repro.obs.metrics import HistogramCell, MetricsRegistry
from repro.scenarios import (
    WindowContext,
    evaluate_all,
    evaluate_assertion,
    parse_assertions,
)


def spec(raw, scope="scenario"):
    [parsed] = parse_assertions([raw], "test", scope=scope)
    return parsed


def sampled(collect):
    """One snapshot of a registry whose only collector is ``collect``."""
    registry = MetricsRegistry(enabled=True)
    registry.register_collector(collect)
    return registry.snapshot()


def traffic_window() -> WindowContext:
    """A window with cache traffic, residency, dedup, and queue waits."""
    wait = HistogramCell((0.001, 0.01, 0.1))
    for _ in range(19):
        wait.observe(0.0005)
    wait.observe(0.05)

    def collect(buffer):
        for cache, hits, misses in (("a", 6, 1), ("b", 2, 1)):
            buffer.counter("repro_cache_hits_total", hits, cache=cache)
            buffer.counter("repro_cache_misses_total", misses, cache=cache)
        buffer.gauge("repro_store_bytes_resident", 4096.0)
        buffer.gauge("repro_model_dedup_ratio", 2.5)
        buffer.histogram("repro_queue_wait_seconds", wait.value())

    return WindowContext(
        name="phase:test",
        delta=sampled(collect),
        span_aggregates={
            "serve.batch": {
                "count": 8, "sum_s": 0.4, "p50_s": 0.04, "p95_s": 0.09,
            },
        },
        outputs=np.array([1.0, 2.0, 3.0]),
        expected=np.array([1.0, 2.0, 3.0]),
    )


class TestCountersAndGauges:
    def test_counter_max_sums_the_family(self):
        window = traffic_window()
        result = evaluate_assertion(
            spec({"kind": "counter_max",
                  "metric": "repro_cache_hits_total", "max": 8}),
            window,
        )
        assert result.passed and result.observed == 8.0
        result = evaluate_assertion(
            spec({"kind": "counter_max",
                  "metric": "repro_cache_hits_total", "max": 7}),
            window,
        )
        assert not result.passed

    def test_labels_filter_by_superset(self):
        result = evaluate_assertion(
            spec({"kind": "counter_min",
                  "metric": "repro_cache_hits_total", "min": 6,
                  "labels": {"cache": "a"}}),
            traffic_window(),
        )
        assert result.passed and result.observed == 6.0

    def test_absent_family_fails_loudly(self):
        result = evaluate_assertion(
            spec({"kind": "counter_max",
                  "metric": "repro_cache_hit_total", "max": 10}),
            traffic_window(),
        )
        assert not result.passed
        assert result.observed is None
        assert "no samples" in result.detail

    def test_counter_kind_does_not_match_gauges(self):
        # A gauge family must not satisfy a counter assertion.
        result = evaluate_assertion(
            spec({"kind": "counter_max",
                  "metric": "repro_store_bytes_resident", "max": 1e9}),
            traffic_window(),
        )
        assert not result.passed and result.observed is None

    def test_gauge_bounds_read_the_window_end(self):
        window = traffic_window()
        assert evaluate_assertion(
            spec({"kind": "gauge_max",
                  "metric": "repro_store_bytes_resident", "max": 4096}),
            window,
        ).passed
        assert not evaluate_assertion(
            spec({"kind": "gauge_min",
                  "metric": "repro_store_bytes_resident", "min": 5000}),
            window,
        ).passed


class TestDerivedMetrics:
    def test_hit_rate_over_the_window(self):
        result = evaluate_assertion(
            spec({"kind": "hit_rate_min", "min": 0.75}),
            traffic_window(),
        )
        assert result.passed
        assert result.observed == pytest.approx(0.8)

    def test_hit_rate_with_zero_lookups_fails(self):
        def collect(buffer):
            buffer.counter("repro_cache_hits_total", 0)
            buffer.counter("repro_cache_misses_total", 0)

        result = evaluate_assertion(
            spec({"kind": "hit_rate_min", "min": 0.0}),
            WindowContext(name="w", delta=sampled(collect)),
        )
        assert not result.passed
        assert "no cache lookups" in result.detail

    def test_quantile_max_over_merged_histogram(self):
        window = traffic_window()
        # 19/20 observations sit under 1ms; p90 is inside that bucket.
        assert evaluate_assertion(
            spec({"kind": "quantile_max",
                  "metric": "repro_queue_wait_seconds",
                  "q": 0.9, "max_s": 0.001}),
            window,
        ).passed
        # The straggler drags p99 into the 0.1s bucket.
        assert not evaluate_assertion(
            spec({"kind": "quantile_max",
                  "metric": "repro_queue_wait_seconds",
                  "q": 0.99, "max_s": 0.001}),
            window,
        ).passed

    def test_dedup_ratio_band(self):
        window = traffic_window()
        assert evaluate_assertion(
            spec({"kind": "dedup_ratio_band", "min": 2.0, "max": 3.0}),
            window,
        ).passed
        assert not evaluate_assertion(
            spec({"kind": "dedup_ratio_band", "min": 3.0, "max": 9.0}),
            window,
        ).passed


class TestSpansAndOutputs:
    def test_span_aggregate_bounds(self):
        window = traffic_window()
        assert evaluate_assertion(
            spec({"kind": "span_count_min",
                  "span": "serve.batch", "min": 8}),
            window,
        ).passed
        assert evaluate_assertion(
            spec({"kind": "span_p95_max",
                  "span": "serve.batch", "max_s": 0.1}),
            window,
        ).passed
        missing = evaluate_assertion(
            spec({"kind": "span_count_min", "span": "ghost", "min": 1}),
            window,
        )
        assert not missing.passed and "no samples" in missing.detail

    def test_outputs_bit_exact(self):
        window = traffic_window()
        assert evaluate_assertion(
            spec({"kind": "outputs_bit_exact"}), window
        ).passed
        window.outputs = np.nextafter(window.outputs, np.inf)
        assert not evaluate_assertion(
            spec({"kind": "outputs_bit_exact"}), window
        ).passed

    def test_outputs_close_honours_tolerance(self):
        window = traffic_window()
        window.outputs = window.expected + 1e-12
        assert evaluate_assertion(
            spec({"kind": "outputs_close"}), window
        ).passed
        assert not evaluate_assertion(
            spec({"kind": "outputs_close", "rtol": 1e-15, "atol": 1e-15}),
            window,
        ).passed

    def test_outputs_missing_reference_fails(self):
        window = traffic_window()
        window.expected = None
        result = evaluate_assertion(
            spec({"kind": "outputs_bit_exact"}), window
        )
        assert not result.passed
        assert "no reference outputs" in result.detail


class TestEvaluateAll:
    def test_results_carry_window_and_describe(self):
        window = traffic_window()
        assertions = parse_assertions(
            [
                {"kind": "hit_rate_min", "min": 0.75},
                {"kind": "gauge_max",
                 "metric": "repro_store_bytes_resident", "max": 1},
            ],
            "test",
            scope="phase",
        )
        results = evaluate_all(assertions, window)
        assert [r.passed for r in results] == [True, False]
        assert all(r.window == "phase:test" for r in results)
        assert results[0].describe().startswith("[PASS] phase:test:")
        assert results[1].describe().startswith("[FAIL]")
