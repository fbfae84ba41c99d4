"""A thread-safe metrics registry: counters, gauges, histograms.

The seven bookkeeping surfaces that grew alongside the system
(``RuntimeStats``, ``WorkerStats``, ``PlannerStats``, ``ServingStats``,
``CacheStats``, ``StoreStats``, ``IOStats``) each answer one layer's
questions; this registry is the common model underneath them: every
quantity the process exposes is a *metric family* — a name, a kind
(counter / gauge / histogram), a help string, and a fixed tuple of
label names — holding one *cell* per label-value combination.  The
exporters (:mod:`repro.obs.export`) render a registry snapshot as
Prometheus text exposition or JSON without knowing anything about the
layers that populate it.

Two population mechanisms, deliberately different:

* **owned instruments** — only for what no component keeps a record
  of (per-request counts and latencies, failures, the training
  loops): hot paths create their instruments once and call ``inc`` /
  ``set`` / ``observe`` per event.  Mutations take the registry's one
  lock, so a snapshot of owned instruments is a true point-in-time cut
  across all of them;
* **collectors** — components that already keep locked records (the
  serving books, the queue, partial caches, the partial store, the
  buffer pool, I/O stats) register a callback that *samples* that
  state on demand instead of counting it twice.  Collectors run
  **outside** the registry lock (a component may call ``inc`` while
  holding its own lock, so sampling under the registry lock could
  deadlock); each collector reads its component atomically under the
  component's own locks, so every sampled stat group is internally
  consistent.

**Disabled mode.**  A registry constructed with ``enabled=False``
hands out module-level no-op singletons from :func:`counter` /
:func:`gauge` / :func:`histogram` — one shared ``_NoopCounter`` whose
``inc`` is ``pass`` — and :meth:`MetricsRegistry.snapshot` returns an
empty snapshot without touching collectors.  Instrumented code keeps a
reference to whatever instrument it was handed and never branches on
an enabled flag, so the cost of telemetry-off is one attribute lookup
and one no-op call per event.
"""

from __future__ import annotations

import math
import threading
import weakref
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
    """An immutable copy of every metric cell at one instant.

    Owned instruments are copied under the registry lock (one
    consistent cut); collector samples are appended after, each
    internally consistent under its component's locks.
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


class _NoopInstrument:
    """Shared do-nothing instrument for disabled registries."""

    __slots__ = ()

    def labels(self, **_labels: str) -> "_NoopInstrument":
        return self

    def inc(self, value: float = 1.0) -> None:
        pass

    def dec(self, value: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NOOP_INSTRUMENT = _NoopInstrument()


class _Family:
    """One metric family: shared metadata plus per-label-tuple cells."""

    __slots__ = ("name", "kind", "help", "labelnames", "buckets", "cells")

    def __init__(self, name, kind, help, labelnames, buckets=None):
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self.buckets = buckets
        self.cells: dict[tuple[str, ...], object] = {}


class _BoundInstrument:
    """An instrument bound to one family + one label-value tuple.

    All mutation happens under the registry's lock, which is what
    makes :meth:`MetricsRegistry.snapshot` a consistent cut across
    every owned instrument.
    """

    __slots__ = ("_registry", "_family", "_labelvalues")

    def __init__(self, registry, family, labelvalues):
        self._registry = registry
        self._family = family
        self._labelvalues = labelvalues

    def labels(self, **labels: str) -> "_BoundInstrument":
        return self._registry._bind(self._family, labels)

    def _cell(self):
        family = self._family
        cell = family.cells.get(self._labelvalues)
        if cell is None:
            if family.kind == HISTOGRAM:
                cell = HistogramCell(family.buckets)
            else:
                cell = _ScalarCell()
            family.cells[self._labelvalues] = cell
        return cell


class _ScalarCell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


class HistogramCell:
    """One fixed-bucket distribution: the storage behind every
    :class:`Histogram` label tuple, also usable on its own (no
    registry) where a component wants a :class:`HistogramValue` with
    telemetry on *or* off.  Unlocked — callers synchronize."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    def value(self) -> HistogramValue:
        return HistogramValue(
            buckets=self.buckets,
            counts=tuple(self.counts),
            sum=self.sum,
            count=self.count,
        )


class Counter(_BoundInstrument):
    """A monotonically increasing value (events, rows, evictions)."""

    __slots__ = ()

    def inc(self, value: float = 1.0) -> None:
        if value < 0:
            raise ModelError(
                f"counter {self._family.name!r} cannot decrease "
                f"(inc({value}))"
            )
        with self._registry._lock:
            self._cell().value += value


class Gauge(_BoundInstrument):
    """A value that can go up and down (queue depth, bytes resident)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        with self._registry._lock:
            self._cell().value = float(value)

    def inc(self, value: float = 1.0) -> None:
        with self._registry._lock:
            self._cell().value += value

    def dec(self, value: float = 1.0) -> None:
        self.inc(-value)


class Histogram(_BoundInstrument):
    """Fixed-bucket distribution (latencies, batch sizes).

    ``observe`` finds the first bucket whose upper bound is >= the
    value (Prometheus ``le`` semantics: a value exactly on a boundary
    counts into that boundary's bucket); values above every bound land
    in the implicit +Inf bucket.
    """

    __slots__ = ()

    def observe(self, value: float) -> None:
        with self._registry._lock:
            self._cell().observe(value)


class MetricsRegistry:
    """The process-wide home of every metric family.

    One lock guards all owned-instrument mutation and the family
    table, so :meth:`snapshot` returns a consistent point-in-time cut.
    Collector callbacks registered via :meth:`register_collector` are
    sampled outside the lock (see the module docstring for why) and
    must themselves return internally consistent values.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._collectors: list = []

    # -- instrument creation -------------------------------------------------

    def _family(self, name, kind, help, labelnames, buckets=None):
        _validate_name(name)
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help, labelnames, buckets)
                self._families[name] = family
            elif family.kind != kind or family.labelnames != labelnames:
                raise ModelError(
                    f"metric {name!r} already registered as "
                    f"{family.kind} with labels {family.labelnames}; "
                    f"cannot re-register as {kind} with {labelnames}"
                )
            return family

    def _bind(self, family, labels: dict[str, str]):
        if tuple(sorted(labels)) != tuple(sorted(family.labelnames)):
            raise ModelError(
                f"metric {family.name!r} takes labels "
                f"{family.labelnames}, got {tuple(sorted(labels))}"
            )
        values = tuple(str(labels[k]) for k in family.labelnames)
        cls = {COUNTER: Counter, GAUGE: Gauge, HISTOGRAM: Histogram}[
            family.kind
        ]
        return cls(self, family, values)

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        """A counter family; with labels, call ``.labels(...)`` to bind."""
        if not self.enabled:
            return NOOP_INSTRUMENT
        return self._bind_default(
            self._family(name, COUNTER, help, labelnames)
        )

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        if not self.enabled:
            return NOOP_INSTRUMENT
        return self._bind_default(self._family(name, GAUGE, help, labelnames))

    def histogram(
        self,
        name: str,
        buckets=LATENCY_BUCKETS_S,
        help: str = "",
        labelnames=(),
    ) -> Histogram:
        if not self.enabled:
            return NOOP_INSTRUMENT
        buckets = tuple(float(b) for b in buckets)
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ModelError(
                "histogram buckets must be non-empty, strictly "
                f"ascending upper bounds, got {buckets}"
            )
        family = self._family(name, HISTOGRAM, help, labelnames, buckets)
        if family.buckets != buckets:
            raise ModelError(
                f"histogram {name!r} already registered with buckets "
                f"{family.buckets}"
            )
        return self._bind_default(family)

    def _bind_default(self, family):
        if family.labelnames:
            # A labeled family's parent handle only exists to call
            # .labels() on; using it directly would be a silent
            # label-less cell, so bind lazily via labels().
            cls = {
                COUNTER: Counter, GAUGE: Gauge, HISTOGRAM: Histogram
            }[family.kind]
            return cls(self, family, None)
        return self._bind(family, {})

    # -- collectors ----------------------------------------------------------

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

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Every cell of every family, plus collector samples.

        Owned instruments are copied in one locked pass (a consistent
        cut: no ``inc`` can interleave).  Collectors run after, outside
        the lock, each atomic under its own component's locks.
        """
        if not self.enabled:
            return MetricsSnapshot()
        samples: list[Sample] = []
        with self._lock:
            collectors = [ref() for ref in self._collectors]
            if None in collectors:   # prune dead weak methods
                self._collectors = [
                    ref for ref in self._collectors if ref() is not None
                ]
                collectors = [c for c in collectors if c is not None]
            for family in self._families.values():
                for labelvalues, cell in family.cells.items():
                    labels = tuple(
                        sorted(zip(family.labelnames, labelvalues))
                    )
                    if family.kind == HISTOGRAM:
                        value = cell.value()
                    else:
                        value = cell.value
                    samples.append(
                        Sample(
                            family.name, family.kind, labels, value,
                            family.help,
                        )
                    )
        buffer = SampleBuffer()
        for collector in collectors:
            collector(buffer)
        samples.extend(buffer.samples)
        return MetricsSnapshot(samples=tuple(samples))


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
