"""Per-batch strategy planning from the unified cost-model interface.

At registration time PR 1's :class:`~repro.serve.service.ModelService`
fixes a strategy per model; under mixed traffic that is the wrong
granularity.  The quantity that decides the winner — the tuple ratio
``n/m`` between batch rows and distinct RIDs — is known *before*
scoring, at micro-batch assembly, so the runtime plans each batch
individually from its :class:`~repro.fx.dedup.DedupPlan`: the dedup is
computed once at assembly, the planner reads its distinct-RID counts
(no second ``np.unique``), and the chosen predictor then gathers with
the very same plan.  Multiplication charges come from
:mod:`repro.fx.costs` — the one :class:`~repro.fx.costs.CostModel`
interface shared with training strategy resolution — discounted by the
live cache hit rate (warm partials cost no dimension-side work).

Ties go to the materialized path: when factorization saves nothing,
the dense batch avoids cache maintenance and shard locking.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.strategies import FACTORIZED, MATERIALIZED
from repro.errors import ModelError
from repro.fx.costs import serving_cost_model
from repro.fx.dedup import DedupPlan


@dataclass(frozen=True)
class PlanDecision:
    """One batch's planning outcome, kept for observability."""

    strategy: str
    rows: int
    distinct: tuple[int, ...]      # per-dimension distinct-RID counts
    dense_mults: int
    factorized_mults: int

    @property
    def saving_rate(self) -> float:
        if not self.dense_mults:
            return 0.0
        return (self.dense_mults - self.factorized_mults) / self.dense_mults


@dataclass
class PlannerStats:
    """Rolling decision counters for one model.

    Dedup bookkeeping lives on :class:`~repro.serve.core.
    RegisteredModel` (every executed batch counts, planned or not);
    this class only tracks the planner's *decisions*.
    """

    decisions: Counter = field(default_factory=Counter)
    recent: list[PlanDecision] = field(default_factory=list)
    recent_limit: int = 64

    def record(self, decision: PlanDecision) -> None:
        self.decisions[decision.strategy] += 1
        self.recent.append(decision)
        if len(self.recent) > self.recent_limit:
            del self.recent[: len(self.recent) - self.recent_limit]


class BatchPlanner:
    """Cost-model strategy choice for one registered model.

    ``kind`` is ``"gmm"`` or ``"nn"``; ``d_s``/``dim_widths`` describe
    the join layout and ``width_param`` is the model's per-row work
    multiplier (hidden width ``n_h`` for networks, component count
    ``K`` for mixtures).  All multiplication counts delegate to the
    matching :mod:`repro.fx.costs` serving adapter; the binary-join
    case reduces to the published :mod:`repro.serve.cost_model`
    formulas exactly (asserted by the tests).
    """

    def __init__(
        self,
        kind: str,
        d_s: int,
        dim_widths: tuple[int, ...],
        width_param: int,
    ) -> None:
        if kind not in ("gmm", "nn"):
            raise ModelError(f"unknown planner kind {kind!r}; use 'gmm'|'nn'")
        if d_s <= 0 or width_param <= 0 or not dim_widths:
            raise ModelError(
                "planner needs positive d_s, width_param and at least "
                "one dimension"
            )
        self.kind = kind
        self.d_s = d_s
        self.dim_widths = tuple(int(w) for w in dim_widths)
        self.width_param = width_param
        self.cost_model = serving_cost_model(
            kind, d_s=d_s, dim_widths=self.dim_widths,
            width_param=width_param,
        )

    def dense_mults(self, n: int) -> int:
        return self.cost_model.dense_mults(n)

    def factorized_mults(
        self,
        n: int,
        distinct: tuple[int, ...],
        hit_rates: tuple[float, ...],
    ) -> int:
        """Expected multiplications for the factorized batch.

        Cached partials are free on the dimension side, so each
        dimension's per-distinct term is discounted by its current
        cache hit rate — the planner's link to runtime state.
        """
        return self.cost_model.factorized_mults(n, distinct, hit_rates)

    # -- the decision --------------------------------------------------------

    def plan(
        self,
        batch,
        hit_rates: tuple[float, ...] | None = None,
    ) -> PlanDecision:
        """Pick a strategy for one assembled batch.

        ``batch`` is either the batch's :class:`~repro.fx.dedup.
        DedupPlan` (the runtime path — the dedup was already computed
        at assembly) or its canonical per-dimension FK arrays (a plan
        is built here).  ``hit_rates`` are the current per-dimension
        cache hit rates (defaults to cold).  Factorized wins on
        strictly fewer expected multiplications.
        """
        if not isinstance(batch, DedupPlan):
            batch = DedupPlan.for_batch(
                [np.asarray(fk) for fk in batch]
            )
        if batch.num_dimensions != len(self.dim_widths):
            raise ModelError(
                f"batch has {batch.num_dimensions} FK arrays for "
                f"{len(self.dim_widths)} dimensions"
            )
        n = batch.rows
        if hit_rates is None:
            hit_rates = tuple(0.0 for _ in self.dim_widths)
        hit_rates = tuple(min(1.0, max(0.0, h)) for h in hit_rates)
        distinct = batch.distinct
        if n == 0:
            return PlanDecision(FACTORIZED, 0, distinct, 0, 0)
        dense = self.dense_mults(n)
        factorized = self.factorized_mults(n, distinct, hit_rates)
        strategy = FACTORIZED if factorized < dense else MATERIALIZED
        return PlanDecision(strategy, n, distinct, dense, factorized)
