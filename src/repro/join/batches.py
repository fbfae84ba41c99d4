"""Batch containers produced by the join access paths.

All three execution strategies stream the joined table in batches; they
differ in the *representation* of a batch:

* :class:`DenseBatch` — one row per joined tuple with the full
  ``[x_S | x_R1 | …]`` feature vector (M- and S- algorithms);
* :class:`FactorizedBatch` — a
  :class:`~repro.linalg.design.FactorizedDesign` that keeps each
  dimension tuple once (F- algorithms).

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
from repro.linalg.design import FactorizedDesign


@dataclass
class DenseBatch:
    """A batch of joined tuples in denormalized (wide) form."""

    sids: np.ndarray
    features: np.ndarray
    targets: np.ndarray | None = None
    #: the assembling block's FK dedup; None off the join paths
    plan: DedupPlan | None = None

    def __post_init__(self) -> None:
        self.sids = np.asarray(self.sids)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ModelError(
                f"features must be 2-D, got {self.features.shape}"
            )
        if self.sids.shape[0] != self.features.shape[0]:
            raise ModelError(
                f"{self.sids.shape[0]} ids vs {self.features.shape[0]} rows"
            )
        if self.targets is not None:
            self.targets = np.asarray(self.targets, dtype=np.float64)
            if self.targets.shape != (self.features.shape[0],):
                raise ModelError(
                    f"targets shape {self.targets.shape} != "
                    f"({self.features.shape[0]},)"
                )
        if self.plan is not None and self.plan.rows != (
            self.features.shape[0]
        ):
            raise ModelError(
                f"dedup plan describes {self.plan.rows} rows, the "
                f"batch has {self.features.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass
class FactorizedBatch:
    """A batch of joined tuples kept in factorized (normalized) form."""

    sids: np.ndarray
    design: FactorizedDesign
    targets: np.ndarray | None = None
    #: the assembling block's FK dedup; None for hand-built batches
    plan: DedupPlan | None = None

    def __post_init__(self) -> None:
        self.sids = np.asarray(self.sids)
        if self.sids.shape[0] != self.design.n:
            raise ModelError(
                f"{self.sids.shape[0]} ids vs {self.design.n} design rows"
            )
        if self.targets is not None:
            self.targets = np.asarray(self.targets, dtype=np.float64)
            if self.targets.shape != (self.design.n,):
                raise ModelError(
                    f"targets shape {self.targets.shape} != "
                    f"({self.design.n},)"
                )
        if self.plan is not None and not self.plan.matches(
            self.design.n, self.design.num_dimensions
        ):
            raise ModelError(
                f"dedup plan describes {self.plan.rows} rows × "
                f"{self.plan.num_dimensions} dimensions, the design has "
                f"{self.design.n} rows × {self.design.num_dimensions}"
            )

    @property
    def n(self) -> int:
        return self.design.n

    def densify(self) -> DenseBatch:
        """Expand to the equivalent :class:`DenseBatch` (tests only)."""
        return DenseBatch(self.sids, self.design.densify(), self.targets)
