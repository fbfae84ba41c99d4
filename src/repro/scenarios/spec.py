"""Declarative scenario specifications.

A scenario is a JSON document (or plain dict) describing one
reproducible serving workload end to end: the normalized schema shape,
the model served over it, the concurrent runtime's knobs, the request
traffic (including Zipf skew), a sequence of *phases* that may shift
the workload mid-flight — skew flip, dimension-update storm, memory
budget cut — and, crucially, the telemetry assertions that make the
run a *verified* claim rather than a wall-time anecdote.

Validation is strict and total at load time: unknown keys anywhere in
the document raise :class:`~repro.errors.ModelError` (a typo'd
assertion that silently never runs is worse than no assertion), every
numeric knob is range-checked, and cross-field contradictions (a
memory budget smaller than what the worker pool's batches insert
between sweeps, a phase that cuts a budget the scenario never
declared) are rejected before a single row is generated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.data.synthetic import DimensionSpec, StarSchemaConfig
from repro.errors import ModelError
from repro.fx.tiers import validate_tiers
from repro.scenarios.assertions import AssertionSpec, parse_assertions
from repro.serve.cache import ADMISSION_POLICIES

MAX_SKEW = 4.0

# Each batch inserts its partials before the governor's after-batch
# sweep runs, so the budget overshoots by up to one micro-batch's rows
# per worker.  Below ~4 KiB per worker that overshoot dwarfs the bound
# itself — a budget that small contradicts the worker count rather
# than bounding it.
MIN_BUDGET_BYTES_PER_WORKER = 4096


def _require_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ModelError(
            f"unknown key(s) {unknown} in {where}; allowed keys are "
            f"{sorted(allowed)}"
        )


def _positive_int(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ModelError(f"{name} must be a positive integer, got {value!r}")
    return value


def _skew(value, name: str) -> float:
    try:
        skew = float(value)
    except (TypeError, ValueError):
        raise ModelError(f"{name} must be a number, got {value!r}") from None
    if not 0.0 <= skew <= MAX_SKEW:
        raise ModelError(
            f"{name} must be a Zipf exponent in [0, {MAX_SKEW}], got {skew}"
        )
    return skew


@dataclass(frozen=True)
class WorkloadSpec:
    """The normalized star the scenario serves over."""

    n_r: int = 40                 # rows per dimension relation
    tuple_ratio: int = 50         # rr = n_s / n_r
    d_s: int = 5                  # fact feature width
    d_r: int = 8                  # dimension feature width
    join_arity: int = 1           # q: number of dimension relations
    fk_skew: float = 0.0          # Zipf exponent of stored FK columns

    @property
    def n_s(self) -> int:
        return self.n_r * self.tuple_ratio

    @classmethod
    def from_dict(cls, raw: dict, where: str) -> "WorkloadSpec":
        _require_keys(
            raw,
            {"n_r", "tuple_ratio", "d_s", "d_r", "join_arity", "fk_skew"},
            where,
        )
        return cls(
            n_r=_positive_int(raw.get("n_r", 40), f"{where}.n_r"),
            tuple_ratio=_positive_int(
                raw.get("tuple_ratio", 50), f"{where}.tuple_ratio"
            ),
            d_s=_positive_int(raw.get("d_s", 5), f"{where}.d_s"),
            d_r=_positive_int(raw.get("d_r", 8), f"{where}.d_r"),
            join_arity=_positive_int(
                raw.get("join_arity", 1), f"{where}.join_arity"
            ),
            fk_skew=_skew(raw.get("fk_skew", 0.0), f"{where}.fk_skew"),
        )

    def to_star_config(self, seed: int) -> StarSchemaConfig:
        return StarSchemaConfig(
            n_s=self.n_s,
            d_s=self.d_s,
            dimensions=tuple(
                DimensionSpec(self.n_r, self.d_r)
                for _ in range(self.join_arity)
            ),
            with_target=True,
            fk_skew=self.fk_skew,
            seed=seed,
        )


@dataclass(frozen=True)
class ModelSpec:
    """The model fitted once per trial and served through every phase."""

    kind: str = "nn"              # "nn" | "gmm"
    width: int = 16               # hidden units (nn) / components (gmm)
    epochs: int = 1               # training epochs / EM iterations
    strategy: str = "factorized"  # "factorized"|"materialized"|"adaptive"

    @classmethod
    def from_dict(cls, raw: dict, where: str) -> "ModelSpec":
        _require_keys(raw, {"kind", "width", "epochs", "strategy"}, where)
        kind = raw.get("kind", "nn")
        if kind not in ("nn", "gmm"):
            raise ModelError(
                f"{where}.kind must be 'nn' or 'gmm', got {kind!r}"
            )
        strategy = raw.get("strategy", "factorized")
        if strategy not in ("factorized", "materialized", "adaptive"):
            raise ModelError(
                f"{where}.strategy must be 'factorized', 'materialized' "
                f"or 'adaptive', got {strategy!r}"
            )
        return cls(
            kind=kind,
            width=_positive_int(raw.get("width", 16), f"{where}.width"),
            epochs=_positive_int(raw.get("epochs", 1), f"{where}.epochs"),
            strategy=strategy,
        )


@dataclass(frozen=True)
class RuntimeSpec:
    """Knobs forwarded to :func:`repro.core.api.serve_runtime`."""

    workers: int = 2
    max_batch_rows: int = 2048
    max_wait_ms: float = 1.0
    queue_depth: int = 1024
    admission: str = "lru"
    memory_budget: int | None = None       # bytes, None = unbounded
    store_tiers: tuple = ()                # demotion ladder, () = drop
    executor: str = "thread"               # "thread" | "process"

    @classmethod
    def from_dict(cls, raw: dict, where: str) -> "RuntimeSpec":
        _require_keys(
            raw,
            {
                "workers", "max_batch_rows", "max_wait_ms", "queue_depth",
                "admission", "memory_budget", "store_tiers", "executor",
            },
            where,
        )
        admission = raw.get("admission", "lru")
        if admission not in ADMISSION_POLICIES:
            raise ModelError(
                f"{where}.admission must be one of "
                f"{sorted(ADMISSION_POLICIES)}, got {admission!r}"
            )
        max_wait_ms = raw.get("max_wait_ms", 1.0)
        if not isinstance(max_wait_ms, (int, float)) or max_wait_ms < 0:
            raise ModelError(
                f"{where}.max_wait_ms must be >= 0, got {max_wait_ms!r}"
            )
        memory_budget = raw.get("memory_budget")
        if memory_budget is not None:
            memory_budget = _positive_int(
                memory_budget, f"{where}.memory_budget"
            )
        executor = raw.get("executor", "thread")
        if executor not in ("thread", "process"):
            raise ModelError(
                f"{where}.executor must be 'thread' or 'process', "
                f"got {executor!r}"
            )
        store_tiers = raw.get("store_tiers", [])
        if not isinstance(store_tiers, list) or not all(
            isinstance(tier, str) for tier in store_tiers
        ):
            raise ModelError(
                f"{where}.store_tiers must be a list of tier names, "
                f"got {store_tiers!r}"
            )
        store_tiers = validate_tiers(tuple(store_tiers))
        return cls(
            workers=_positive_int(raw.get("workers", 2), f"{where}.workers"),
            max_batch_rows=_positive_int(
                raw.get("max_batch_rows", 2048), f"{where}.max_batch_rows"
            ),
            max_wait_ms=float(max_wait_ms),
            queue_depth=_positive_int(
                raw.get("queue_depth", 1024), f"{where}.queue_depth"
            ),
            admission=admission,
            memory_budget=memory_budget,
            store_tiers=store_tiers,
            executor=executor,
        )


@dataclass(frozen=True)
class MaintenanceSpec:
    """A phase-boundary model-maintenance action.

    Runs an update storm of ``updates`` dimension rows through the
    row-version bus with a :class:`~repro.maintain.ModelMaintainer`
    attached (policy fields mirror
    :class:`~repro.maintain.MaintenancePolicy`), then — with ``flush``
    — applies the pending deltas and hot-swaps the refreshed fit into
    both the runtime and the reference service, so output-parity
    assertions compare post-maintenance fits on both sides.
    """

    updates: int = 0
    refresh: str = "batched"
    max_pending: int = 64
    drift_bound: float = math.inf
    flush: bool = True

    @classmethod
    def from_dict(cls, raw: dict, where: str) -> "MaintenanceSpec":
        if not isinstance(raw, dict):
            raise ModelError(
                f"{where} must be a mapping, got {type(raw).__name__}"
            )
        _require_keys(
            raw,
            {"updates", "refresh", "max_pending", "drift_bound", "flush"},
            where,
        )
        updates = raw.get("updates", 0)
        if (
            not isinstance(updates, int)
            or isinstance(updates, bool)
            or updates < 0
        ):
            raise ModelError(
                f"{where}.updates must be a non-negative integer, "
                f"got {updates!r}"
            )
        refresh = raw.get("refresh", "batched")
        if refresh not in ("eager", "batched", "manual"):
            raise ModelError(
                f"{where}.refresh must be 'eager', 'batched' or "
                f"'manual', got {refresh!r}"
            )
        drift_bound = raw.get("drift_bound", math.inf)
        try:
            drift_bound = float(drift_bound)
        except (TypeError, ValueError):
            raise ModelError(
                f"{where}.drift_bound must be a number, "
                f"got {drift_bound!r}"
            ) from None
        if drift_bound <= 0:
            raise ModelError(
                f"{where}.drift_bound must be positive, got {drift_bound}"
            )
        flush = raw.get("flush", True)
        if not isinstance(flush, bool):
            raise ModelError(
                f"{where}.flush must be a bool, got {flush!r}"
            )
        return cls(
            updates=updates,
            refresh=refresh,
            max_pending=_positive_int(
                raw.get("max_pending", 64), f"{where}.max_pending"
            ),
            drift_bound=drift_bound,
            flush=flush,
        )


@dataclass(frozen=True)
class PhaseSpec:
    """One stretch of traffic, optionally shifting the workload first.

    Phase-boundary adaptations run *before* the phase's requests:

    * ``dim_updates`` — update that many dimension rows in place (the
      "update storm" shape; partial caches and the buffer pool see the
      invalidation fan-out, and the phase measures the recovery);
    * ``maintenance`` — like ``dim_updates``, but with a
      :class:`~repro.maintain.ModelMaintainer` attached: the storm's
      events coalesce under the declared policy and (with ``flush``)
      the delta-refreshed fit is hot-swapped into runtime and
      reference before the phase's traffic (see
      :class:`MaintenanceSpec`);
    * ``memory_budget`` — re-bound the runtime's store-wide budget
      (bytes); a cut forces cross-cache eviction mid-run;
    * ``skew`` / ``flip`` — this phase's request traffic follows a
      Zipf(``skew``) popularity law over fact rows; ``flip`` reverses
      the popularity order (the hot set becomes the cold set), the
      canonical cache-adversarial shift.
    """

    name: str
    requests: int = 24
    request_rows: int = 128
    skew: float = 0.0
    flip: bool = False
    dim_updates: int = 0
    maintenance: MaintenanceSpec | None = None
    memory_budget: int | None = None
    assertions: tuple[AssertionSpec, ...] = ()

    @classmethod
    def from_dict(cls, raw: dict, where: str) -> "PhaseSpec":
        _require_keys(
            raw,
            {
                "name", "requests", "request_rows", "skew", "flip",
                "dim_updates", "maintenance", "memory_budget",
                "assertions",
            },
            where,
        )
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise ModelError(f"{where}.name must be a non-empty string")
        flip = raw.get("flip", False)
        if not isinstance(flip, bool):
            raise ModelError(f"{where}.flip must be a bool, got {flip!r}")
        dim_updates = raw.get("dim_updates", 0)
        if (
            not isinstance(dim_updates, int)
            or isinstance(dim_updates, bool)
            or dim_updates < 0
        ):
            raise ModelError(
                f"{where}.dim_updates must be a non-negative integer, "
                f"got {dim_updates!r}"
            )
        memory_budget = raw.get("memory_budget")
        if memory_budget is not None:
            memory_budget = _positive_int(
                memory_budget, f"{where}.memory_budget"
            )
        maintenance = raw.get("maintenance")
        if maintenance is not None:
            maintenance = MaintenanceSpec.from_dict(
                maintenance, f"{where}.maintenance"
            )
        return cls(
            name=name,
            requests=_positive_int(
                raw.get("requests", 24), f"{where}.requests"
            ),
            request_rows=_positive_int(
                raw.get("request_rows", 128), f"{where}.request_rows"
            ),
            skew=_skew(raw.get("skew", 0.0), f"{where}.skew"),
            flip=flip,
            dim_updates=dim_updates,
            maintenance=maintenance,
            memory_budget=memory_budget,
            assertions=parse_assertions(
                raw.get("assertions", []), f"{where}.assertions",
                scope="phase",
            ),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully validated scenario document."""

    name: str
    description: str = ""
    trials: int = 3
    seed: int = 0
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    phases: tuple[PhaseSpec, ...] = ()
    assertions: tuple[AssertionSpec, ...] = ()

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioSpec":
        if not isinstance(raw, dict):
            raise ModelError(
                f"a scenario must be a mapping, got {type(raw).__name__}"
            )
        _require_keys(
            raw,
            {
                "name", "description", "trials", "seed", "workload",
                "model", "runtime", "phases", "assertions",
            },
            "scenario",
        )
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise ModelError("scenario.name must be a non-empty string")
        phases_raw = raw.get("phases", [])
        if not isinstance(phases_raw, list) or not phases_raw:
            raise ModelError(
                "scenario.phases must be a non-empty list of phases"
            )
        phases = tuple(
            PhaseSpec.from_dict(phase, f"scenario.phases[{index}]")
            for index, phase in enumerate(phases_raw)
        )
        seen: set[str] = set()
        for phase in phases:
            if phase.name in seen:
                raise ModelError(
                    f"duplicate phase name {phase.name!r}; phase names "
                    "key the per-phase summary metrics"
                )
            seen.add(phase.name)
        seed = raw.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ModelError(
                f"scenario.seed must be a non-negative integer, got {seed!r}"
            )
        spec = cls(
            name=name,
            description=str(raw.get("description", "")),
            trials=_positive_int(raw.get("trials", 3), "scenario.trials"),
            seed=seed,
            workload=WorkloadSpec.from_dict(
                raw.get("workload", {}), "scenario.workload"
            ),
            model=ModelSpec.from_dict(raw.get("model", {}), "scenario.model"),
            runtime=RuntimeSpec.from_dict(
                raw.get("runtime", {}), "scenario.runtime"
            ),
            phases=phases,
            assertions=parse_assertions(
                raw.get("assertions", []), "scenario.assertions",
                scope="scenario",
            ),
        )
        spec._validate_cross_fields()
        return spec

    def _validate_cross_fields(self) -> None:
        budgets = [self.runtime.memory_budget] + [
            phase.memory_budget for phase in self.phases
        ]
        declared = [b for b in budgets if b is not None]
        if declared and self.runtime.memory_budget is None:
            raise ModelError(
                "a phase re-bounds memory_budget but the scenario "
                "declares no initial runtime.memory_budget; the budget "
                "governor is armed at runtime construction, so a "
                "mid-run cut needs an initial bound to cut from"
            )
        floor = MIN_BUDGET_BYTES_PER_WORKER * self.runtime.workers
        for budget in declared:
            if budget < floor:
                raise ModelError(
                    f"memory_budget {budget} bytes contradicts "
                    f"workers={self.runtime.workers}: each worker's "
                    f"batch overshoots it until the sweep after the "
                    f"batch, so the budget must be at least "
                    f"{MIN_BUDGET_BYTES_PER_WORKER} bytes per worker "
                    f"({floor} total)"
                )
        if self.runtime.store_tiers and self.runtime.memory_budget is None:
            raise ModelError(
                "runtime.store_tiers without runtime.memory_budget is "
                "inert: the tiers are the budget governor's demotion "
                "ladder, and an unbounded store never demotes"
            )
        wants_demotions = any(
            a.kind == "tier_demotions_min" for a in self.all_assertions
        )
        if wants_demotions and not self.runtime.store_tiers:
            raise ModelError(
                "a tier_demotions_min assertion needs "
                "runtime.store_tiers: without a ladder the governor "
                "evicts outright and the demotion counter never exists"
            )
        needs_exact = any(
            a.kind == "outputs_bit_exact"
            for a in self.all_assertions
        )
        if needs_exact and self.model.strategy == "adaptive":
            raise ModelError(
                "outputs_bit_exact requires a fixed serving strategy: "
                "the adaptive planner may mix materialized and "
                "factorized batches, which agree to float tolerance, "
                "not bit-exactly — use strategy 'factorized' (or "
                "'materialized'), or assert outputs_close instead"
            )
        if needs_exact and self.model.kind != "gmm":
            raise ModelError(
                "outputs_bit_exact is only an honest claim for "
                "discrete outputs (GMM hard labels): continuous NN "
                "outputs depend on BLAS summation order, which varies "
                "with micro-batch shape when the runtime coalesces "
                "requests — assert outputs_close for NN models"
            )
        for assertion in self.assertions:
            if assertion.scope_required == "phase":
                raise ModelError(
                    f"assertion kind {assertion.kind!r} is "
                    "phase-scoped; attach it to a phase"
                )

    @property
    def all_assertions(self) -> tuple[AssertionSpec, ...]:
        return self.assertions + tuple(
            a for phase in self.phases for a in phase.assertions
        )


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load and validate one scenario JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ModelError(f"{path} is not valid JSON: {error}") from None
    return ScenarioSpec.from_dict(raw)


def load_scenarios(directory: str | Path) -> list[ScenarioSpec]:
    """Every ``*.json`` scenario under ``directory``, sorted by name."""
    directory = Path(directory)
    specs = [load_scenario(p) for p in sorted(directory.glob("*.json"))]
    if not specs:
        raise ModelError(f"no *.json scenarios found under {directory}")
    return specs
