"""Unified telemetry: metrics registry, request tracing, exporters.

One :class:`Telemetry` object bundles the two halves of observability
— a :class:`~repro.obs.metrics.MetricsRegistry` (aggregate counters /
gauges / histograms answering *how much*, each sampled from the book
of the component that counts it) and a
:class:`~repro.obs.trace.Tracer` (per-request span trees answering
*where did this one go*) — and renders both through the exporters in
:mod:`repro.obs.export`.

The serving runtime, the model service, and the training loops all
take a ``telemetry=`` argument coerced through :func:`as_telemetry`:

* ``None`` / ``False`` → the shared :data:`NULL_TELEMETRY`, whose
  registry samples nothing and whose tracer opens no spans;
* ``True`` → a fresh enabled :class:`Telemetry` with defaults;
* a :class:`Telemetry` instance → used as-is (share one across
  components to get a single combined snapshot).
"""

from __future__ import annotations

from repro.obs.export import (
    TelemetryServer,
    parse_prometheus_text,
    prometheus_text,
    snapshot_to_json,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    SIZE_BUCKETS,
    HistogramValue,
    MetricsRegistry,
    MetricsSnapshot,
    Sample,
    SampleBuffer,
)
from repro.obs.trace import NOOP_SPAN, Span, Tracer, current_span
from repro.obs.training import TrainingBook


class Telemetry:
    """A registry + tracer pair with one-stop snapshot/export methods.

    ``trace_capacity`` / ``slow_trace_ms`` / ``slow_trace_capacity``
    configure the tracer's ring buffers (see
    :class:`~repro.obs.trace.Tracer`).
    """

    def __init__(
        self,
        enabled: bool = True,
        trace_capacity: int = 64,
        slow_trace_ms: float = 250.0,
        slow_trace_capacity: int = 16,
    ) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(
            capacity=trace_capacity,
            slow_threshold_s=slow_trace_ms / 1000.0,
            slow_capacity=slow_trace_capacity,
            enabled=enabled,
        )
        #: The ``repro_training_*`` series of every fit given this
        #: telemetry (``None`` when disabled: nothing else reads it).
        self.training = TrainingBook() if enabled else None
        if enabled:
            self.registry.register_collector(self.training.collect)

    def snapshot(self) -> MetricsSnapshot:
        """One consistent, tear-free cut of every registered metric."""
        return self.registry.snapshot()

    def prometheus(self) -> str:
        """The current snapshot in Prometheus text exposition format."""
        return prometheus_text(self.snapshot())

    def span_aggregates(self) -> dict[str, dict[str, float]]:
        """Per-span-name latency aggregates (count / sum / p50 / p95)
        over every finished trace — see
        :meth:`~repro.obs.trace.Tracer.span_aggregates`."""
        return self.tracer.span_aggregates()

    def to_json(self, indent: int | None = None) -> str:
        """The current snapshot as a JSON document.

        Includes a top-level ``"spans"`` section with the same
        per-span-name aggregates :meth:`span_aggregates` returns, so
        the HTTP ``/snapshot.json`` endpoint and in-process consumers
        (the scenario harness) report identical numbers.
        """
        return snapshot_to_json(
            self.snapshot(), indent=indent, spans=self.span_aggregates()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"Telemetry({state})"


NULL_TELEMETRY = Telemetry(enabled=False)


def as_telemetry(value) -> Telemetry:
    """Coerce a user-facing ``telemetry=`` argument to a Telemetry."""
    if value is None or value is False:
        return NULL_TELEMETRY
    if value is True:
        return Telemetry(enabled=True)
    if isinstance(value, Telemetry):
        return value
    raise TypeError(
        "telemetry must be None, a bool, or a repro.obs.Telemetry, "
        f"got {type(value).__name__}"
    )


__all__ = [
    "HistogramValue",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NOOP_SPAN",
    "NULL_TELEMETRY",
    "Sample",
    "SampleBuffer",
    "SIZE_BUCKETS",
    "Span",
    "Telemetry",
    "TelemetryServer",
    "Tracer",
    "as_telemetry",
    "current_span",
    "parse_prometheus_text",
    "prometheus_text",
    "snapshot_to_json",
]
