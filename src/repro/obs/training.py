"""What a training run reports, whichever model family it trains.

Every ``repro_training_*`` series is kept here and nowhere else, in
the :class:`TrainingBook` of each enabled
:class:`~repro.obs.Telemetry`: the EM and the epoch driver hold one
:class:`TrainingRecorder` each, and :func:`repro.core.training.train`
books a join index's counters through :func:`publish_join_index`.
"""

from __future__ import annotations

import threading
from collections import defaultdict

from repro.fx.dedup import DedupCounter
from repro.obs.metrics import LATENCY_BUCKETS_S, HistogramCell


class TrainingBook:
    """Every fit's training series, by algorithm, added up across the
    fits one telemetry is given; :meth:`collect` samples them."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seconds = defaultdict(lambda: HistogramCell(LATENCY_BUCKETS_S))
        self._steps: dict[str, int] = defaultdict(int)
        self._dedup_ratio: dict[str, float] = {}
        self._index_bytes: dict[str, int] = {}
        self._replays: dict[str, int] = defaultdict(int)

    def step(self, algorithm: str, seconds: float, dedup_ratio: float) -> None:
        with self._lock:
            self._seconds[algorithm].observe(seconds)
            self._steps[algorithm] += 1
            self._dedup_ratio[algorithm] = dedup_ratio

    def join_index(self, algorithm: str, stats: dict) -> None:
        with self._lock:
            self._index_bytes[algorithm] = stats["bytes"]
            self._replays[algorithm] += stats["passes_replayed"]

    def collect(self, buffer) -> None:
        with self._lock:
            for algorithm, cell in self._seconds.items():
                buffer.histogram(
                    "repro_training_iteration_seconds", cell.value(),
                    help="Wall seconds per training iteration/epoch",
                    algorithm=algorithm,
                )
            for kind, name, help, book in (
                ("counter", "repro_training_iterations_total",
                 "Training iterations/epochs completed", self._steps),
                ("gauge", "repro_training_dedup_ratio",
                 "FK references per distinct value observed so far",
                 self._dedup_ratio),
                ("gauge", "repro_training_join_index_bytes",
                 "Bytes of key-derived arrays the fit's join index held",
                 self._index_bytes),
                ("counter", "repro_training_join_index_replays_total",
                 "Training passes served from the join index",
                 self._replays),
            ):
                for algorithm, value in book.items():
                    getattr(buffer, kind)(
                        name, value, help=help, algorithm=algorithm
                    )


def _book(telemetry) -> TrainingBook | None:
    # Imported here: repro.obs builds every Telemetry's book from this
    # module.
    from repro.obs import as_telemetry

    return as_telemetry(telemetry).training


class TrainingRecorder:
    """Dedup bookkeeping and per-step series of one fit.

    Batches assembled by the join access paths carry their
    :class:`~repro.fx.dedup.DedupPlan`; :meth:`observed` folds every
    executed batch's plan into a :class:`~repro.fx.dedup.DedupCounter`
    (batches read back from a materialized table carry none and count
    nothing), :meth:`step_done` closes one EM iteration / epoch, and
    :meth:`extra` is the fit result's ``extra`` — the same series the
    telemetry's book received under the ``algorithm`` label.
    """

    def __init__(self, algorithm: str, telemetry=None) -> None:
        self.algorithm = algorithm
        self.dedup = DedupCounter()
        self.step_seconds: list[float] = []
        self.dedup_ratio_series: list[float] = []
        self._book = _book(telemetry)

    def observed(self, batches):
        for batch in batches:
            if batch.plan is not None:
                self.dedup.observe(batch.plan)
            yield batch

    def step_done(self, seconds: float) -> None:
        self.step_seconds.append(seconds)
        self.dedup_ratio_series.append(self.dedup.dedup_ratio)
        if self._book is not None:
            self._book.step(self.algorithm, seconds, self.dedup.dedup_ratio)

    def extra(self, seconds_key: str) -> dict:
        return {
            **self.dedup.as_extra(),
            seconds_key: self.step_seconds,
            "dedup_ratio_series": self.dedup_ratio_series,
        }


def publish_join_index(telemetry, algorithm: str, stats: dict) -> dict:
    """Book :meth:`repro.join.bnl.JoinIndex.stats` in the telemetry's
    training book; returns ``stats`` (the fit result's
    ``extra["join_index"]``)."""
    book = _book(telemetry)
    if book is not None:
        book.join_index(algorithm, stats)
    return stats
