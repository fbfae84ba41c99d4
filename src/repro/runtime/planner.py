"""Per-batch strategy planning from the one cost model.

At registration time PR 1's :class:`~repro.serve.service.ModelService`
fixes a strategy per model; under mixed traffic that is the wrong
granularity.  The quantity that decides the winner — the tuple ratio
``n/m`` between batch rows and distinct RIDs — is known *before*
scoring, at micro-batch assembly, so the runtime plans each batch
individually from its :class:`~repro.fx.dedup.DedupPlan`: the dedup is
computed once at assembly, the planner reads its distinct-RID counts
(no second ``np.unique``), and the registration's predictor then
answers in the chosen arm with the very same plan.  The counts and the decision rule are
:meth:`repro.fx.costs.CostModel.decide` — whose counts
``algorithm="auto"`` training resolution also reads — discounted by the live
cache hit rate (warm partials cost no dimension-side work); this module
only adapts a batch to it and keeps the decision log.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError
from repro.fx.costs import PlanDecision, serving_cost_model
from repro.fx.dedup import DedupPlan


@dataclass
class PlannerStats:
    """Rolling decision counters for one model.

    Dedup bookkeeping lives on :class:`~repro.serve.core.
    RegisteredModel` (every executed batch counts, planned or not);
    this class only tracks the planner's *decisions*, and the running
    cost-model estimates of both paths (their difference: the saving).
    """

    decisions: Counter = field(default_factory=Counter)
    recent: list[PlanDecision] = field(default_factory=list)
    recent_limit: int = 64
    dense_mults: int = 0
    factorized_mults: int = 0

    def record(self, decision: PlanDecision) -> None:
        self.decisions[decision.strategy] += 1
        self.dense_mults += decision.dense_mults
        self.factorized_mults += decision.factorized_mults
        self.recent.append(decision)
        if len(self.recent) > self.recent_limit:
            del self.recent[: len(self.recent) - self.recent_limit]


class BatchPlanner:
    """Cost-model strategy choice for one registered model.

    ``kind`` is ``"gmm"`` or ``"nn"``; ``d_s``/``dim_widths`` describe
    the join layout and ``width_param`` is the model's per-row work
    multiplier (hidden width ``n_h`` for networks, component count
    ``K`` for mixtures).  They build the serving
    :class:`~repro.fx.costs.CostModel` (``cost_model``), which
    validates them and owns every count.
    """

    def __init__(
        self,
        kind: str,
        d_s: int,
        dim_widths: tuple[int, ...],
        width_param: int,
    ) -> None:
        self.cost_model = serving_cost_model(
            kind, d_s=d_s, dim_widths=dim_widths, width_param=width_param
        )

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
        cache hit rates (defaults to cold).  The choice itself is
        :meth:`~repro.fx.costs.CostModel.decide`.
        """
        if not isinstance(batch, DedupPlan):
            batch = DedupPlan.for_batch(
                [np.asarray(fk) for fk in batch]
            )
        if batch.num_dimensions != self.cost_model.num_dimensions:
            raise ModelError(
                f"batch has {batch.num_dimensions} FK arrays for "
                f"{self.cost_model.num_dimensions} dimensions"
            )
        return self.cost_model.decide(batch.rows, batch.distinct, hit_rates)
