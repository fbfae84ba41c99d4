"""The factorized design matrix.

A batch of the joined table ``T`` can be held two ways:

* **dense** — an ``n × d`` array with one row per fact tuple, feature
  columns ``[x_S | x_R1 | … | x_Rq]`` (what M-/S- algorithms compute on);
* **factorized** — the fact block ``x_S`` at ``n`` rows plus each
  dimension block ``x_{R_i}`` at its *distinct* ``m_i`` rows, with a
  :class:`~repro.linalg.groupsum.GroupIndex` mapping fact rows to
  dimension rows (what F- algorithms compute on).

:class:`FactorizedDesign` is the factorized form.  ``densify`` expands
it to the dense form (used by tests to prove exactness, never by the
F- algorithms themselves).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.linalg.blocks import BlockLayout
from repro.linalg.groupsum import GroupIndex


@dataclass
class FactorizedDesign:
    """A join batch kept in factorized (normalized) form."""

    fact_block: np.ndarray
    dim_blocks: list[np.ndarray]
    groups: list[GroupIndex]

    def __post_init__(self) -> None:
        self.fact_block = np.asarray(self.fact_block, dtype=np.float64)
        if self.fact_block.ndim != 2:
            raise ModelError(
                f"fact block must be 2-D, got shape {self.fact_block.shape}"
            )
        if len(self.dim_blocks) != len(self.groups):
            raise ModelError(
                f"{len(self.dim_blocks)} dimension blocks but "
                f"{len(self.groups)} group indexes"
            )
        self.dim_blocks = [
            np.asarray(block, dtype=np.float64) for block in self.dim_blocks
        ]
        n = self.fact_block.shape[0]
        for i, (block, group) in enumerate(zip(self.dim_blocks, self.groups)):
            if block.ndim != 2:
                raise ModelError(
                    f"dimension block {i} must be 2-D, got {block.shape}"
                )
            if group.n != n:
                raise ModelError(
                    f"group {i} indexes {group.n} rows, fact block has {n}"
                )
            if group.num_groups != block.shape[0]:
                raise ModelError(
                    f"group {i} has {group.num_groups} groups, dimension "
                    f"block has {block.shape[0]} rows"
                )
        self._presorted_fact: dict[int, np.ndarray] = {}

    # -- geometry ------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of fact rows (rows of the joined batch)."""
        return self.fact_block.shape[0]

    @property
    def num_dimensions(self) -> int:
        """Number of joined dimension relations ``q``."""
        return len(self.dim_blocks)

    @property
    def layout(self) -> BlockLayout:
        """The feature-space partition ``(d_S, d_R1, …, d_Rq)``."""
        return BlockLayout(
            [self.fact_block.shape[1]]
            + [block.shape[1] for block in self.dim_blocks]
        )

    @property
    def d(self) -> int:
        return self.layout.total

    @property
    def stored_values(self) -> int:
        """Float values actually held: ``n·d_S + Σ m_i·d_Ri``.

        The dense equivalent stores ``n·d``; the ratio is the storage
        redundancy the factorization removes.
        """
        return self.fact_block.size + sum(b.size for b in self.dim_blocks)

    def presorted_fact(self, dim_index: int) -> np.ndarray:
        """The fact block reordered by dimension ``dim_index``'s codes.

        Cached: the ordering is a property of the join batch, reused by
        every grouped reduction over it (one per mixture component per
        M-step, for instance), so sorting once amortizes across all of
        them.
        """
        if dim_index not in self._presorted_fact:
            self._presorted_fact[dim_index] = self.groups[
                dim_index
            ].presort(self.fact_block)
        return self._presorted_fact[dim_index]

    # -- conversions ---------------------------------------------------------

    def densify(self) -> np.ndarray:
        """Materialize the equivalent dense ``n × d`` batch."""
        parts = [self.fact_block]
        for block, group in zip(self.dim_blocks, self.groups):
            parts.append(group.gather(block))
        return np.concatenate(parts, axis=1)

    @classmethod
    def from_plan(
        cls,
        fact_block: np.ndarray,
        dim_blocks: list[np.ndarray],
        plan,
    ) -> "FactorizedDesign":
        """Build from a batch's :class:`~repro.fx.dedup.DedupPlan`.

        ``dim_blocks[i]`` must hold dimension ``i``'s feature rows at
        the plan's distinct RIDs (sorted-RID order, ``m_i`` rows); the
        group indexes are the plan's own, memoized per dimension
        (:meth:`~repro.fx.dedup.DimensionDedup.group_index`): a plan
        from ``for_batch`` hands them its sort, a permuted one sorts
        lazily if a grouped reduction asks.  This is the constructor the
        training access path uses (:mod:`repro.join.factorized`) — the
        design's grouped reductions and the serving predictors then
        share one dedup per batch per dimension.
        """
        if len(dim_blocks) != plan.num_dimensions:
            raise ModelError(
                f"{len(dim_blocks)} dimension blocks for a plan of "
                f"{plan.num_dimensions} dimensions"
            )
        return cls(
            fact_block,
            list(dim_blocks),
            [dim.group_index() for dim in plan.dims],
        )

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        layout: BlockLayout,
        codes: list[np.ndarray],
        dim_blocks: list[np.ndarray],
    ) -> "FactorizedDesign":
        """Build from a dense batch plus known dimension blocks/codes.

        Used by tests: ``dense`` must equal the densified result, which
        callers can verify via :meth:`densify`.
        """
        parts = layout.split_vector(dense)
        groups = [
            GroupIndex(code, block.shape[0])
            for code, block in zip(codes, dim_blocks)
        ]
        return cls(parts[0], list(dim_blocks), groups)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dims = ", ".join(
            f"{b.shape[0]}x{b.shape[1]}" for b in self.dim_blocks
        )
        return (
            f"FactorizedDesign(n={self.n}, d={self.d}, dims=[{dims}])"
        )
