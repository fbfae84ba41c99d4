"""Exporters: Prometheus text round-trip through the strict parser,
JSON snapshot schema, label escaping."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    parse_prometheus_text,
    prometheus_text,
    snapshot_to_json,
)
from repro.obs.metrics import HistogramCell


def sampling(collect) -> MetricsRegistry:
    """A registry whose only collector is ``collect``."""
    reg = MetricsRegistry()
    reg.register_collector(collect)
    return reg


def populated_registry() -> MetricsRegistry:
    latency = HistogramCell((0.1, 1.0))
    for value in (0.05, 0.5, 2.0):
        latency.observe(value)

    def collect(buffer):
        buffer.counter(
            "repro_requests_total", 5, help="Requests served",
            model="m", op="predict",
        )
        buffer.gauge("repro_queue_depth", 3, help="Requests waiting")
        buffer.histogram(
            "repro_batch_seconds", latency.value(), help="Batch wall time"
        )

    return sampling(collect)


class TestPrometheusText:
    def test_counter_gets_total_suffix_once(self):
        def collect(buffer):
            buffer.counter("evts_total", 1)
            buffer.counter("raw", 1)

        text = prometheus_text(sampling(collect).snapshot())
        assert "evts_total 1" in text
        assert "evts_total_total" not in text
        assert "raw_total 1" in text

    def test_help_and_type_headers(self):
        text = prometheus_text(populated_registry().snapshot())
        assert "# HELP repro_requests_total Requests served" in text
        assert "# TYPE repro_requests_total counter" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "# TYPE repro_batch_seconds histogram" in text

    def test_histogram_expansion(self):
        text = prometheus_text(populated_registry().snapshot())
        assert 'repro_batch_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_batch_seconds_bucket{le="1"} 2' in text
        assert 'repro_batch_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_batch_seconds_sum 2.55" in text
        assert "repro_batch_seconds_count 3" in text

    def test_label_escaping(self):
        def collect(buffer):
            buffer.gauge("g", 1, tag='quo"te\\back\nline')

        text = prometheus_text(sampling(collect).snapshot())
        parsed = parse_prometheus_text(text)
        [(labels, value)] = parsed["series"]["g"].items()
        assert dict(labels)["tag"] == 'quo"te\\back\nline'
        assert value == 1.0


class TestRoundTrip:
    def test_full_round_trip(self):
        snap = populated_registry().snapshot()
        parsed = parse_prometheus_text(prometheus_text(snap))
        series, types = parsed["series"], parsed["types"]
        key = (("model", "m"), ("op", "predict"))
        assert series["repro_requests_total"][key] == 5.0
        assert series["repro_queue_depth"][()] == 3.0
        assert types["repro_requests_total"] == "counter"
        assert types["repro_batch_seconds"] == "histogram"
        # Cumulative buckets monotone, +Inf bucket == _count.
        buckets = series["repro_batch_seconds_bucket"]
        counts = [
            buckets[(("le", "0.1"),)],
            buckets[(("le", "1"),)],
            buckets[(("le", "+Inf"),)],
        ]
        assert counts == sorted(counts)
        assert counts[-1] == series["repro_batch_seconds_count"][()]

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            parse_prometheus_text("# TYPE x summary\n")
        with pytest.raises(ValueError, match="comment"):
            parse_prometheus_text("# EOF\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus_text('x{a="1" 3\n')

    def test_labels_with_commas_inside_values(self):
        def collect(buffer):
            buffer.gauge("g", 2, tag="a,b")

        parsed = parse_prometheus_text(
            prometheus_text(sampling(collect).snapshot())
        )
        assert parsed["series"]["g"][(("tag", "a,b"),)] == 2.0


class TestParserEdgeCases:
    """Hand-written exposition text, not round-trips: the strict
    parser must accept the awkward-but-legal corners of the format."""

    def test_plus_inf_value_parses_to_float_inf(self):
        parsed = parse_prometheus_text("x +Inf\n")
        assert parsed["series"]["x"][()] == float("inf")

    def test_inf_bucket_out_of_order_still_parses(self):
        # Exposition order is not semantics: a scrape that lists the
        # +Inf bucket first still yields every cell.
        text = (
            "# TYPE w_seconds histogram\n"
            'w_seconds_bucket{le="+Inf"} 3\n'
            'w_seconds_bucket{le="0.1"} 1\n'
            'w_seconds_bucket{le="1"} 2\n'
            "w_seconds_sum 1.5\n"
            "w_seconds_count 3\n"
        )
        parsed = parse_prometheus_text(text)
        buckets = parsed["series"]["w_seconds_bucket"]
        assert buckets[(("le", "+Inf"),)] == 3.0
        assert buckets[(("le", "0.1"),)] == 1.0
        assert parsed["series"]["w_seconds_count"][()] == 3.0
        assert parsed["types"]["w_seconds"] == "histogram"

    def test_escaped_label_values_unescape(self):
        text = 'g{tag="quo\\"te\\nline\\\\back"} 1\n'
        parsed = parse_prometheus_text(text)
        [(labels, value)] = parsed["series"]["g"].items()
        assert dict(labels)["tag"] == 'quo"te\nline\\back'
        assert value == 1.0

    def test_type_header_without_samples_is_an_empty_family(self):
        # A family can be declared but never observed (e.g. a counter
        # registered on a path that never ran): the type survives, no
        # series appears, and nothing raises.
        parsed = parse_prometheus_text("# TYPE quiet_total counter\n")
        assert parsed["types"]["quiet_total"] == "counter"
        assert "quiet_total" not in parsed["series"]

    def test_empty_text_is_empty_families(self):
        assert parse_prometheus_text("") == {"series": {}, "types": {}}
        assert parse_prometheus_text("\n\n") == {"series": {}, "types": {}}

    def test_help_lines_are_skipped_not_parsed(self):
        text = "# HELP x helpful words { not labels }\nx 1\n"
        assert parse_prometheus_text(text)["series"]["x"][()] == 1.0

    def test_unquoted_label_value_rejected(self):
        with pytest.raises(ValueError, match="label"):
            parse_prometheus_text("x{a=1} 3\n")


class TestJson:
    def test_schema(self):
        doc = json.loads(snapshot_to_json(populated_registry().snapshot()))
        metrics = doc["metrics"]
        [req] = metrics["repro_requests_total"]
        assert req["kind"] == "counter"
        assert req["labels"] == {"model": "m", "op": "predict"}
        assert req["value"] == 5.0
        [hist] = metrics["repro_batch_seconds"]
        assert hist["histogram"]["buckets"] == [0.1, 1.0]
        assert hist["histogram"]["cumulative"] == [1, 2, 3]
        assert hist["histogram"]["count"] == 3
        assert hist["histogram"]["sum"] == pytest.approx(2.55)

    def test_empty_snapshot(self):
        doc = json.loads(
            snapshot_to_json(MetricsRegistry(enabled=False).snapshot())
        )
        assert doc == {"metrics": {}}
