"""The scenario runner: N telemetry-verified trials of one spec.

Each trial is hermetic — a fresh on-disk :class:`Database` in a
temporary directory, a freshly generated star, a model fitted from the
trial's derived seed, a single-threaded *reference* predictor
(:func:`repro.core.api.serve`) and the concurrent runtime under test
(:func:`repro.core.api.serve_runtime`) with its own dedicated
:class:`~repro.obs.Telemetry`.  The runtime's outputs for every
request are compared against the reference, and every claim about
*behaviour* (hit rates, eviction counts, queue-wait quantiles) is an
assertion over windowed :class:`~repro.obs.metrics.MetricsSnapshot`
deltas cut at phase boundaries — never over global counters that blur
phases together.

Phase execution order (the window is cut so adaptation fallout lands
in the phase that caused it):

1. snapshot the telemetry cut that opens the phase window;
2. apply the phase's adaptations — dimension-update storm
   (:meth:`Database.update_rows`), store-budget re-bound
   (:meth:`ServingRuntime.set_memory_budget`);
3. compute the reference outputs for the phase's request stream on
   the single-threaded service (it saw the same updates);
4. fire the requests at the runtime, gather the futures;
5. snapshot again; ``delta`` of the two cuts is the phase window the
   phase's assertions are evaluated against.

Across trials the runner reports per-metric medians with a normal-
approximation 95% confidence interval — one-run numbers are noise.
"""

from __future__ import annotations

import statistics
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.api import fit_gmm, fit_nn, maintain, serve, serve_runtime
from repro.data.synthetic import generate_star
from repro.errors import ModelError
from repro.gmm.base import EMConfig
from repro.maintain import MaintenancePolicy
from repro.nn.base import NNConfig
from repro.obs import Telemetry
from repro.obs.metrics import COUNTER, GAUGE
from repro.scenarios.assertions import (
    AssertionResult,
    WindowContext,
    _merged_histogram,
    _sum_scalar,
    evaluate_all,
)
from repro.scenarios.spec import PhaseSpec, ScenarioSpec
from repro.storage.catalog import Database

REFERENCE_MODEL = "scenario"


# -- results ------------------------------------------------------------------


@dataclass
class PhaseResult:
    """One phase of one trial: window metrics + assertion outcomes."""

    name: str
    rows: int
    wall_s: float
    metrics: dict[str, float] = field(default_factory=dict)
    assertions: list[AssertionResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.assertions)


@dataclass
class TrialResult:
    """One full pass through every phase."""

    trial: int
    phases: list[PhaseResult] = field(default_factory=list)
    assertions: list[AssertionResult] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.assertions) and all(
            phase.passed for phase in self.phases
        )

    def failures(self) -> list[AssertionResult]:
        out = [r for r in self.assertions if not r.passed]
        for phase in self.phases:
            out.extend(r for r in phase.assertions if not r.passed)
        return out


@dataclass
class ScenarioResult:
    """N trials of one scenario, with cross-trial statistics."""

    spec: ScenarioSpec
    trials: list[TrialResult]
    summary: dict[str, dict[str, float]]

    @property
    def passed(self) -> bool:
        return all(trial.passed for trial in self.trials)

    def failures(self) -> list[str]:
        out = []
        for trial in self.trials:
            out.extend(
                f"trial {trial.trial}: {result.describe()}"
                for result in trial.failures()
            )
        return out


def _ci95(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return 1.96 * statistics.stdev(values) / len(values) ** 0.5


def summarize_trials(trials: list[TrialResult]) -> dict[str, dict]:
    """Median / mean / 95% CI for every metric across trials.

    Keys are ``scenario.<metric>`` and ``phase:<name>.<metric>``; a
    metric missing from some trials is summarized over the trials that
    produced it (``n`` records how many).
    """
    series: dict[str, list[float]] = {}
    for trial in trials:
        for metric, value in trial.metrics.items():
            series.setdefault(f"scenario.{metric}", []).append(value)
        for phase in trial.phases:
            for metric, value in phase.metrics.items():
                series.setdefault(
                    f"phase:{phase.name}.{metric}", []
                ).append(value)
    summary = {}
    for key, values in sorted(series.items()):
        clean = [v for v in values if not np.isnan(v)]
        if not clean:
            continue
        summary[key] = {
            "median": float(statistics.median(clean)),
            "mean": float(statistics.fmean(clean)),
            "ci95": float(_ci95(clean)),
            "n": len(clean),
        }
    return summary


# -- traffic ------------------------------------------------------------------


def _zipf_probabilities(n: int, skew: float) -> np.ndarray | None:
    """Popularity over ranks 1..n, or None for uniform traffic."""
    if skew == 0.0:
        return None
    weights = np.arange(1, n + 1, dtype=np.float64) ** -skew
    return weights / weights.sum()


def _phase_indices(
    rng: np.random.Generator,
    permutation: np.ndarray,
    phase: PhaseSpec,
) -> np.ndarray:
    """Fact-row indices for one phase's whole request stream.

    Popularity follows Zipf(``skew``) over *ranks*; the fixed per-trial
    ``permutation`` maps ranks to fact rows so the hot set is stable
    across phases — until a ``flip`` reverses it, making the former
    cold tail the new hot set (the cache-adversarial shift).
    """
    n = permutation.shape[0]
    order = permutation[::-1] if phase.flip else permutation
    total = phase.requests * phase.request_rows
    ranks = rng.choice(
        n, size=total, p=_zipf_probabilities(n, phase.skew)
    )
    return order[ranks]


# -- the runner ---------------------------------------------------------------


class ScenarioRunner:
    """Execute a :class:`ScenarioSpec` for its configured trial count."""

    def __init__(self, spec: ScenarioSpec, *, workdir: str | Path | None = None):
        self.spec = spec
        self.workdir = Path(workdir) if workdir is not None else None

    def run(self) -> ScenarioResult:
        trials = [
            self._run_trial(trial) for trial in range(self.spec.trials)
        ]
        return ScenarioResult(
            spec=self.spec,
            trials=trials,
            summary=summarize_trials(trials),
        )

    # -- one trial -----------------------------------------------------------

    def _run_trial(self, trial: int) -> TrialResult:
        spec = self.spec
        seed = spec.seed * 10_007 + trial
        with tempfile.TemporaryDirectory(
            prefix=f"scenario-{spec.name}-t{trial}-",
            dir=self.workdir,
        ) as tmp:
            db = Database(Path(tmp) / "db")
            try:
                with warnings.catch_warnings():
                    # Tiny presets routinely stop EM/SGD early; the
                    # harness verifies serving, not model quality.
                    warnings.simplefilter("ignore")
                    return self._run_trial_on(db, trial, seed)
            finally:
                db.close(delete=True)

    def _run_trial_on(self, db: Database, trial: int, seed: int) -> TrialResult:
        spec = self.spec
        star = generate_star(db, spec.workload.to_star_config(seed))
        model = self._fit(db, star.spec, seed)

        # The single-threaded reference uses a *fixed* strategy: for an
        # adaptive runtime it pins factorized, so outputs_close (not
        # bit_exact — spec validation enforces this) is the right claim.
        reference_strategy = (
            spec.model.strategy
            if spec.model.strategy != "adaptive"
            else "factorized"
        )
        reference = serve(db)
        telemetry = Telemetry(enabled=True)
        runtime = serve_runtime(
            db,
            num_workers=spec.runtime.workers,
            max_batch_rows=spec.runtime.max_batch_rows,
            max_wait_ms=spec.runtime.max_wait_ms,
            queue_depth=spec.runtime.queue_depth,
            memory_budget=spec.runtime.memory_budget,
            store_tiers=spec.runtime.store_tiers,
            executor=spec.runtime.executor,
            telemetry=telemetry,
        )
        maintainer = None
        try:
            register_ref = getattr(reference, f"register_{spec.model.kind}")
            register_ref(
                REFERENCE_MODEL, model, star.spec,
                strategy=reference_strategy,
            )
            register_rt = getattr(runtime, f"register_{spec.model.kind}")
            register_rt(
                REFERENCE_MODEL, model, star.spec,
                strategy=spec.model.strategy,
            )

            maintenance_specs = [
                phase.maintenance for phase in spec.phases
                if phase.maintenance is not None
            ]
            if maintenance_specs:
                first = maintenance_specs[0]
                policy = MaintenancePolicy(
                    refresh=first.refresh,
                    max_pending=first.max_pending,
                    drift_bound=first.drift_bound,
                )
                if spec.model.kind == "nn":
                    configs = {
                        "nn_config": NNConfig(
                            hidden_sizes=(spec.model.width,),
                            epochs=spec.model.epochs,
                            seed=seed,
                        )
                    }
                else:
                    configs = {
                        "em_config": EMConfig(
                            n_components=spec.model.width,
                            max_iter=spec.model.epochs,
                            seed=seed,
                        )
                    }
                maintainer = maintain(
                    db, REFERENCE_MODEL, spec.model.kind, star.spec,
                    model, policy=policy,
                    targets=(runtime, reference), telemetry=telemetry,
                    **configs,
                )

            fact = star.spec.resolve(db).fact
            stored = fact.scan()
            features = fact.project_features(stored)
            fks = np.column_stack(
                [
                    stored[
                        :, fact.schema.fk_position(dim.relation)
                    ].astype(np.int64)
                    for dim in star.spec.dimensions
                ]
            )

            permutation = np.random.default_rng(seed).permutation(
                features.shape[0]
            )
            start = telemetry.snapshot()
            result = TrialResult(trial=trial)
            all_outputs: list[np.ndarray] = []
            all_expected: list[np.ndarray] = []
            for index, phase in enumerate(spec.phases):
                phase_result, outputs, expected = self._run_phase(
                    db, runtime, reference, telemetry, star.spec,
                    features, fks, permutation, phase,
                    np.random.default_rng(seed * 7919 + index + 1),
                    maintainer=maintainer,
                )
                result.phases.append(phase_result)
                all_outputs.append(outputs)
                all_expected.append(expected)

            window = telemetry.snapshot().delta(start)
            context = WindowContext(
                name="scenario",
                delta=window,
                span_aggregates=telemetry.span_aggregates(),
                outputs=np.concatenate(all_outputs),
                expected=np.concatenate(all_expected),
            )
            result.assertions = evaluate_all(spec.assertions, context)
            result.metrics = self._window_metrics(window)
            total_rows = sum(p.rows for p in result.phases)
            total_wall = sum(p.wall_s for p in result.phases)
            result.metrics["rows"] = float(total_rows)
            result.metrics["wall_s"] = total_wall
            if total_wall > 0:
                result.metrics["rows_per_sec"] = total_rows / total_wall
            return result
        finally:
            if maintainer is not None:
                maintainer.close()
            runtime.close()
            reference.close()

    def _fit(self, db: Database, join_spec, seed: int):
        model = self.spec.model
        if model.kind == "nn":
            return fit_nn(
                db, join_spec,
                hidden_sizes=(model.width,),
                epochs=model.epochs,
                seed=seed,
            )
        return fit_gmm(
            db, join_spec,
            n_components=model.width,
            max_iter=model.epochs,
            seed=seed,
        )

    # -- one phase -----------------------------------------------------------

    def _run_phase(
        self, db, runtime, reference, telemetry, join_spec,
        features, fks, permutation, phase, rng, *, maintainer=None,
    ) -> tuple[PhaseResult, np.ndarray, np.ndarray]:
        start = telemetry.snapshot()
        extra: dict[str, float] = {}
        if phase.dim_updates:
            self._storm(db, join_spec, phase.dim_updates, rng)
        if phase.maintenance is not None:
            # The maintenance storm happens while the maintainer is
            # subscribed: each update lands as a RowVersionEvent and —
            # under refresh="batched"/"manual" — accumulates until the
            # explicit flush below refreshes the fit and hot-swaps it
            # into both the runtime and the reference service, so the
            # oracle outputs computed next reflect the refreshed model.
            if phase.maintenance.updates:
                self._storm(
                    db, join_spec, phase.maintenance.updates, rng
                )
            if phase.maintenance.flush and maintainer is not None:
                maintainer.flush()
        if phase.memory_budget is not None:
            extra["budget_evicted_rows"] = float(
                runtime.set_memory_budget(phase.memory_budget)
            )

        indices = _phase_indices(rng, permutation, phase)
        requests = [
            indices[i * phase.request_rows:(i + 1) * phase.request_rows]
            for i in range(phase.requests)
        ]
        expected = np.concatenate(
            [
                reference.predict(
                    REFERENCE_MODEL, features[idx], fks[idx]
                )
                for idx in requests
            ]
        )
        wall_start = time.perf_counter()
        futures = [
            runtime.submit(REFERENCE_MODEL, features[idx], fks[idx])
            for idx in requests
        ]
        outputs = np.concatenate(
            [future.result(60.0) for future in futures]
        )
        wall_s = time.perf_counter() - wall_start

        window = telemetry.snapshot().delta(start)
        metrics = self._window_metrics(window)
        metrics.update(extra)
        rows = int(indices.shape[0])
        metrics["rows"] = float(rows)
        metrics["wall_s"] = wall_s
        if wall_s > 0:
            metrics["rows_per_sec"] = rows / wall_s
        context = WindowContext(
            name=phase.name,
            delta=window,
            span_aggregates=None,       # cumulative — scenario scope only
            outputs=outputs,
            expected=expected,
        )
        return (
            PhaseResult(
                name=phase.name,
                rows=rows,
                wall_s=wall_s,
                metrics=metrics,
                assertions=evaluate_all(phase.assertions, context),
            ),
            outputs,
            expected,
        )

    def _storm(self, db, join_spec, count: int, rng) -> None:
        """Overwrite ``count`` dimension rows, round-robin across dims.

        Rewrites feature columns in place (primary keys stay put, as
        :meth:`Database.update_rows` requires), so every touched RID's
        cached partials are invalidated and must be recomputed.
        """
        names = [dim.relation for dim in join_spec.dimensions]
        per_dim = [count // len(names)] * len(names)
        for i in range(count % len(names)):
            per_dim[i] += 1
        for name, n_updates in zip(names, per_dim):
            if n_updates == 0:
                continue
            relation = db.relation(name)
            rows = relation.scan()
            k = min(n_updates, rows.shape[0])
            positions = rng.choice(
                rows.shape[0], size=k, replace=False
            )
            replacement = rows[positions].copy()
            replacement[:, 1:] += rng.normal(
                scale=0.05, size=replacement[:, 1:].shape
            )
            db.update_rows(name, positions, replacement)

    # -- window metrics -------------------------------------------------------

    @staticmethod
    def _window_metrics(window) -> dict[str, float]:
        """The standard per-window extract the summaries report."""
        metrics: dict[str, float] = {}
        hits = _sum_scalar(window, "repro_cache_hits_total", (), (COUNTER,))
        misses = _sum_scalar(
            window, "repro_cache_misses_total", (), (COUNTER,)
        )
        if hits is not None and misses is not None and hits + misses > 0:
            metrics["hit_rate"] = hits / (hits + misses)
        for key, family in (
            ("cross_evictions", "repro_store_cross_evictions_total"),
            ("invalidations", "repro_cache_invalidations_total"),
        ):
            value = _sum_scalar(window, family, (), (COUNTER,))
            if value is not None:
                metrics[key] = value
        resident = _sum_scalar(
            window, "repro_store_bytes_resident", (), (GAUGE,)
        )
        if resident is not None:
            metrics["bytes_resident"] = resident
        dedup = _sum_scalar(
            window, "repro_model_dedup_ratio", (), (GAUGE,)
        )
        if dedup is not None:
            metrics["dedup_ratio"] = dedup
        queue = _merged_histogram(window, "repro_queue_wait_seconds", ())
        if queue is not None and queue.count > 0:
            metrics["queue_wait_p95_s"] = queue.quantile(0.95)
        return metrics


def run_scenario(spec: ScenarioSpec, **kwargs) -> ScenarioResult:
    """Convenience wrapper: one runner, one result."""
    return ScenarioRunner(spec, **kwargs).run()


def check_result(result: ScenarioResult) -> None:
    """Raise :class:`ModelError` listing every failed assertion."""
    if result.passed:
        return
    failures = "\n  ".join(result.failures())
    raise ModelError(
        f"scenario {result.spec.name!r} failed "
        f"{len(result.failures())} assertion(s):\n  {failures}"
    )
