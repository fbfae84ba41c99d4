"""What a training run reports, whichever model family it trains.

Every ``repro_training_*`` series is registered here and nowhere else:
the EM and the epoch driver hold one :class:`TrainingRecorder` each,
and :func:`repro.core.training.train` mirrors a join index's counters
through :func:`publish_join_index`.
"""

from __future__ import annotations

from repro.fx.dedup import DedupCounter
from repro.obs import as_telemetry


def _series(registry, kind: str, name: str, help: str, algorithm: str):
    make = getattr(registry, kind)
    return make(name, help=help, labelnames=("algorithm",)).labels(
        algorithm=algorithm
    )


class TrainingRecorder:
    """Dedup bookkeeping and per-step series of one fit.

    Batches assembled by the join access paths carry their
    :class:`~repro.fx.dedup.DedupPlan`; :meth:`observed` folds every
    executed batch's plan into a :class:`~repro.fx.dedup.DedupCounter`
    (batches read back from a materialized table carry none and count
    nothing), :meth:`step_done` closes one EM iteration / epoch, and
    :meth:`extra` is the fit result's ``extra`` — the same series the
    registry received under the ``algorithm`` label.
    """

    def __init__(self, algorithm: str, telemetry=None) -> None:
        self.dedup = DedupCounter()
        self.step_seconds: list[float] = []
        self.dedup_ratio_series: list[float] = []
        registry = as_telemetry(telemetry).registry
        self._m_seconds = _series(
            registry, "histogram", "repro_training_iteration_seconds",
            "Wall seconds per training iteration/epoch", algorithm,
        )
        self._m_steps = _series(
            registry, "counter", "repro_training_iterations_total",
            "Training iterations/epochs completed", algorithm,
        )
        self._m_dedup_ratio = _series(
            registry, "gauge", "repro_training_dedup_ratio",
            "FK references per distinct value observed so far", algorithm,
        )

    def observed(self, batches):
        for batch in batches:
            if batch.plan is not None:
                self.dedup.observe(batch.plan)
            yield batch

    def step_done(self, seconds: float) -> None:
        self.step_seconds.append(seconds)
        self._m_seconds.observe(seconds)
        self._m_steps.inc()
        self.dedup_ratio_series.append(self.dedup.dedup_ratio)
        self._m_dedup_ratio.set(self.dedup.dedup_ratio)

    def extra(self, seconds_key: str) -> dict:
        return {
            **self.dedup.as_extra(),
            seconds_key: self.step_seconds,
            "dedup_ratio_series": self.dedup_ratio_series,
        }


def publish_join_index(telemetry, algorithm: str, stats: dict) -> dict:
    """Mirror :meth:`repro.join.bnl.JoinIndex.stats` into the registry;
    returns ``stats`` (the fit result's ``extra["join_index"]``)."""
    registry = as_telemetry(telemetry).registry
    _series(
        registry, "gauge", "repro_training_join_index_bytes",
        "Bytes of key-derived arrays the fit's join index held", algorithm,
    ).set(stats["bytes"])
    _series(
        registry, "counter", "repro_training_join_index_replays_total",
        "Training passes served from the join index", algorithm,
    ).inc(stats["passes_replayed"])
    return stats
