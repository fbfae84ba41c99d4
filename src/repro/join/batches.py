"""The one batch container the join access paths produce.

A :class:`Batch` holds a :class:`~repro.linalg.design.FactorizedDesign`
whose fact block carries ``x_S`` and every dimension *inlined* into it.
The M- and S- paths inline every dimension (wide ``[x_S | x_R1 | …]``
rows, no dimension block), the F- path none, so every arm of a model
kind runs one engine.

Batches assembled by the join access paths carry the block's
:class:`~repro.fx.dedup.DedupPlan` — the per-dimension ``(unique,
inverse)`` FK sort computed once in :mod:`repro.join.bnl` — so
training consumers share the dedup the same way serving predictors
share a request batch's plan.  Batches that never saw a join (rows
read back from a materialized table, hand-built test batches) carry
``plan=None``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.fx.dedup import DedupPlan
from repro.join.bnl import JoinBlock, sids_and_targets
from repro.join.spec import ResolvedJoin
from repro.linalg.design import FactorizedDesign


@dataclass
class Batch:
    """A batch of joined tuples: ids, design, targets and the join
    block's dedup."""

    sids: np.ndarray
    design: FactorizedDesign
    targets: np.ndarray | None = None
    #: the assembling block's FK dedup; None off the join paths
    plan: DedupPlan | None = None

    def __post_init__(self) -> None:
        self.sids = np.asarray(self.sids)
        n = self.design.n
        if self.sids.shape[0] != n:
            raise ModelError(f"{self.sids.shape[0]} ids vs {n} design rows")
        if self.targets is not None:
            self.targets = np.asarray(self.targets, dtype=np.float64)
            if self.targets.shape != (n,):
                raise ModelError(
                    f"targets shape {self.targets.shape} != ({n},)"
                )
        # An inlined dimension keeps no block, so the plan may describe
        # more dimensions than the design holds, never fewer.
        if self.plan is not None and (
            self.plan.rows != n
            or self.plan.num_dimensions < self.design.num_dimensions
        ):
            raise ModelError(
                f"dedup plan describes {self.plan.rows} rows × "
                f"{self.plan.num_dimensions} dimensions, the design has "
                f"{n} rows × {self.design.num_dimensions}"
            )

    @property
    def n(self) -> int:
        return self.design.n


def block_batch(
    resolved: ResolvedJoin, block: JoinBlock, *, inline: bool
) -> Batch:
    """The batch of one join block: each dimension's rows at the plan's
    distinct RIDs, gathered beside ``x_S`` when ``inline`` (the single
    dedup the serving tier's ``densify_request`` honours)."""
    fact = resolved.fact
    fact_block = fact.project_features(block.fact_rows)
    distinct = [block.distinct_rows(i) for i in range(len(block.plan.dims))]
    if inline:
        gathered = [
            dim.gather(rows) for dim, rows in zip(block.plan.dims, distinct)
        ]
        design = FactorizedDesign(
            np.concatenate([fact_block, *gathered], axis=1), [], []
        )
    else:
        design = FactorizedDesign.from_plan(fact_block, distinct, block.plan)
    sids, targets = sids_and_targets(fact, block.fact_rows)
    return Batch(sids, design, targets, plan=block.plan)
