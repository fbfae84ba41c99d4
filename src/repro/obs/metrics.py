"""A thread-safe metrics registry: every series sampled from its book.

The seven bookkeeping surfaces that grew alongside the system
(``RuntimeStats``, ``WorkerStats``, ``PlannerStats``, ``ServingStats``,
``CacheStats``, ``StoreStats``, ``IOStats``) each answer one layer's
questions; this registry is the common model underneath them: every
quantity the process exposes is a *metric family* — a name, a kind
(counter / gauge / histogram), a help string, and a fixed tuple of
label names — holding one *sample* per label-value combination.  The
exporters (:mod:`repro.obs.export`) render a registry snapshot as
Prometheus text exposition or JSON without knowing anything about the
layers that populate it.

One population mechanism: the component that sees an event keeps its
count in a plain book of its own (an int, a dict keyed by label
values, a :class:`HistogramCell`) under one of its own locks, and
registers a *collector* — a callback that writes those books into a
:class:`SampleBuffer` when a snapshot is taken.  The serving books,
the runtime's request and batch books, the queue, partial caches, the
partial store, the buffer pool, I/O stats, the maintainers and the
training book all publish this way, so no count is kept twice and no
``/metrics`` series can drift from the record it mirrors.  Collectors
run **outside** the registry lock (whose only job is the collector
list); each reads its component atomically under the component's own
locks, so every sampled stat group is internally consistent.

**Disabled mode.**  A registry constructed with ``enabled=False``
ignores collector registrations and :meth:`MetricsRegistry.snapshot`
returns an empty snapshot.  The serving books are kept either way —
most of them are what ``stats()`` / ``runtime_stats()`` return — at a
locked dict or cell update per event; only the training book, which
nothing but ``/metrics`` reads, is not kept when telemetry is off.
"""

from __future__ import annotations

import math
import threading
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.errors import ModelError

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

# Default bucket ladders.  Latencies span 100µs..10s (request batches
# at tiny scale land around a millisecond; slow traces in seconds);
# sizes are power-of-two row counts (the runtime's batch-size cell).
LATENCY_BUCKETS_S = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
SIZE_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    512.0, 1024.0, 2048.0, 4096.0, 8192.0,
)


@dataclass(frozen=True)
class HistogramValue:
    """One histogram cell's state: cumulative bucket counts + sum."""

    buckets: tuple[float, ...]        # upper bounds, ascending
    counts: tuple[int, ...]           # non-cumulative, len(buckets) + 1
    sum: float
    count: int

    @property
    def cumulative(self) -> tuple[int, ...]:
        """Prometheus-style cumulative counts (``le`` semantics),
        ending with the +Inf bucket == ``count``."""
        out = []
        running = 0
        for n in self.counts:
            running += n
            out.append(running)
        return tuple(out)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Linear interpolation inside the containing bucket (the first
        bucket's lower edge is 0), matching PromQL's
        ``histogram_quantile``: observations landing in the +Inf
        bucket clamp to the highest finite bound, and an empty
        histogram returns ``nan`` — callers asserting on a quantile
        should check :attr:`count` first.
        """
        if not 0.0 < q < 1.0:
            raise ModelError(f"quantile q must be in (0, 1), got {q}")
        if self.count == 0:
            return math.nan
        target = q * self.count
        running = 0
        lower = 0.0
        for bound, n in zip(self.buckets, self.counts):
            if running + n >= target and n > 0:
                fraction = (target - running) / n
                return lower + (bound - lower) * fraction
            running += n
            lower = bound
        # Target falls in the implicit +Inf bucket: clamp, as PromQL
        # does — there is no upper edge to interpolate toward.
        return self.buckets[-1]

    def delta(self, earlier: "HistogramValue") -> "HistogramValue":
        """This cut minus an ``earlier`` cut of the same histogram."""
        if earlier.buckets != self.buckets:
            raise ModelError(
                "histogram delta requires identical bucket ladders, "
                f"got {earlier.buckets} vs {self.buckets}"
            )
        counts = tuple(
            now - before
            for now, before in zip(self.counts, earlier.counts)
        )
        count = self.count - earlier.count
        if count < 0 or any(n < 0 for n in counts):
            raise ModelError(
                "histogram delta went negative; the 'earlier' snapshot "
                "is newer than this one (or from another registry)"
            )
        return HistogramValue(
            buckets=self.buckets,
            counts=counts,
            sum=self.sum - earlier.sum,
            count=count,
        )


@dataclass(frozen=True)
class Sample:
    """One exported time-series point: ``name{labels} value``."""

    name: str
    kind: str                              # counter | gauge | histogram
    labels: tuple[tuple[str, str], ...]    # sorted (label, value) pairs
    value: float | HistogramValue
    help: str = ""


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable copy of every collector's samples.

    Each collector's group is internally consistent under its
    component's locks.
    """

    samples: tuple[Sample, ...] = ()

    def value(self, name: str, **labels: str) -> float | HistogramValue:
        """The sample value for ``name`` with exactly these labels.

        Raises :class:`~repro.errors.ModelError` when absent — typos
        in tests should fail loudly, not return 0.
        """
        wanted = tuple(sorted((k, str(v)) for k, v in labels.items()))
        for sample in self.samples:
            if sample.name == name and sample.labels == wanted:
                return sample.value
        raise ModelError(
            f"no sample {name!r} with labels {dict(labels)!r} in snapshot"
        )

    def get(
        self, name: str, default: float = 0.0, **labels: str
    ) -> float | HistogramValue:
        """Like :meth:`value` but returns ``default`` when absent."""
        try:
            return self.value(name, **labels)
        except ModelError:
            return default

    def family(self, name: str) -> list[Sample]:
        """Every sample of one family (all label combinations)."""
        return [s for s in self.samples if s.name == name]

    def delta(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """The window between two cuts: this snapshot minus ``earlier``.

        Phase-windowed assertions (``repro.scenarios``) subtract two
        snapshots in one call instead of hand-subtracting every
        counter:

        * **counters** subtract (a series absent from ``earlier`` —
          e.g. a cache registered mid-window — keeps its full value);
          a negative difference raises
          :class:`~repro.errors.ModelError`, because it means the
          arguments are swapped or the series reset between cuts;
        * **histograms** subtract bucket-wise (same rules), so
          :meth:`HistogramValue.quantile` over the delta is the
          quantile of *this window's* observations only;
        * **gauges** keep this snapshot's value — a gauge describes an
          instant, not a window, so the window "ends at" the later
          reading;
        * series present only in ``earlier`` (a component dropped
          mid-window) are omitted.
        """
        earlier_by = {
            (s.name, s.labels): s for s in earlier.samples
        }
        out: list[Sample] = []
        for sample in self.samples:
            previous = earlier_by.get((sample.name, sample.labels))
            if previous is None or sample.kind == GAUGE:
                out.append(sample)
                continue
            if sample.kind == HISTOGRAM:
                value: float | HistogramValue = sample.value.delta(
                    previous.value
                )
            else:
                diff = sample.value - previous.value
                # Floats accumulated per event (busy seconds) can land
                # an ulp below zero across cuts; real monotonicity
                # violations are far larger.
                if diff < -1e-9:
                    raise ModelError(
                        f"counter {sample.name!r}{dict(sample.labels)!r} "
                        f"decreased by {-diff} between snapshots; "
                        "'earlier' must be an older cut of the same "
                        "registry"
                    )
                value = max(diff, 0.0)
            out.append(
                Sample(
                    sample.name, sample.kind, sample.labels, value,
                    sample.help,
                )
            )
        return MetricsSnapshot(samples=tuple(out))

    @property
    def names(self) -> list[str]:
        return sorted({s.name for s in self.samples})


def _validate_name(name: str) -> None:
    if not name or not all(
        c.isalnum() or c == "_" for c in name
    ) or name[0].isdigit():
        raise ModelError(
            f"metric name must be [a-zA-Z_][a-zA-Z0-9_]*, got {name!r}"
        )


class HistogramCell:
    """One fixed-bucket distribution, kept by the component that sees
    its events (telemetry on *or* off) and sampled as a
    :class:`HistogramValue`.  Unlocked — callers synchronize.

    ``observe`` counts a value into the first bucket whose upper bound
    is >= it (Prometheus ``le`` semantics: a value exactly on a bound
    counts into that bound's bucket); values above every bound land in
    the implicit +Inf bucket.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = tuple(float(b) for b in buckets)
        if not self.buckets or list(self.buckets) != sorted(set(self.buckets)):
            raise ModelError(
                "histogram buckets must be non-empty, strictly "
                f"ascending upper bounds, got {self.buckets}"
            )
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def value(self) -> HistogramValue:
        return HistogramValue(
            buckets=self.buckets,
            counts=tuple(self.counts),
            sum=self.sum,
            count=self.count,
        )


class MetricsRegistry:
    """The process-wide list of collectors a snapshot samples.

    The registry counts nothing itself: every series is kept by the
    component that sees its events and written into a
    :class:`SampleBuffer` by that component's collector (see the
    module docstring).  Its lock guards only the collector list.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._collectors: list = []

    def register_collector(self, collector) -> None:
        """Register ``collector(buffer)`` to be sampled per snapshot.

        The callback receives a :class:`SampleBuffer` and should write
        gauges/counters read atomically from its component.  Runs
        outside the registry lock.

        Bound methods are held via :class:`weakref.WeakMethod`, so
        registering ``component._collect`` never pins the component: a
        component dropped without an explicit detach simply stops
        being sampled.  A disabled registry ignores registrations
        entirely (it never snapshots, and the shared null registry
        must not accumulate references).
        """
        if not self.enabled:
            return
        if hasattr(collector, "__self__"):
            ref = weakref.WeakMethod(collector)
        else:
            def ref(_collector=collector):
                return _collector
        with self._lock:
            self._collectors.append(ref)

    def unregister_collector(self, collector) -> None:
        """Remove a collector (no-op if absent) — closeable components
        should detach explicitly rather than wait for the weakref."""
        with self._lock:
            self._collectors = [
                ref for ref in self._collectors
                if ref() is not None and ref() != collector
            ]

    def snapshot(self) -> MetricsSnapshot:
        """Every collector's samples, in registration order.

        Collectors run outside the registry lock, each atomic under
        its own component's locks.
        """
        if not self.enabled:
            return MetricsSnapshot()
        with self._lock:
            collectors = [ref() for ref in self._collectors]
            if None in collectors:   # prune dead weak methods
                self._collectors = [
                    ref for ref in self._collectors if ref() is not None
                ]
                collectors = [c for c in collectors if c is not None]
        buffer = SampleBuffer()
        for collector in collectors:
            collector(buffer)
        return MetricsSnapshot(samples=tuple(buffer.samples))


@dataclass
class SampleBuffer:
    """What a collector writes its sampled values into."""

    samples: list[Sample] = field(default_factory=list)

    def counter(
        self, name: str, value: float, help: str = "", **labels: str
    ) -> None:
        self._add(name, COUNTER, float(value), help, labels)

    def gauge(
        self, name: str, value: float, help: str = "", **labels: str
    ) -> None:
        self._add(name, GAUGE, float(value), help, labels)

    def histogram(
        self, name: str, value: HistogramValue, help: str = "",
        **labels: str,
    ) -> None:
        """A distribution its component keeps in a
        :class:`HistogramCell` of its own, as that cell's value."""
        self._add(name, HISTOGRAM, value, help, labels)

    def _add(self, name, kind, value, help, labels) -> None:
        _validate_name(name)
        self.samples.append(Sample(
            name, kind, tuple(sorted((k, str(v)) for k, v in labels.items())),
            value, help,
        ))


NULL_REGISTRY = MetricsRegistry(enabled=False)
