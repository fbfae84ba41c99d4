"""The factorized design matrix.

A batch of the joined table ``T`` can be held two ways:

* **dense** — an ``n × d`` array with one row per fact tuple, feature
  columns ``[x_S | x_R1 | … | x_Rq]`` (what M-/S- algorithms compute on);
* **factorized** — the fact block ``x_S`` at ``n`` rows plus each
  dimension block ``x_{R_i}`` at its *distinct* ``m_i`` rows, with a
  :class:`~repro.linalg.groupsum.GroupIndex` mapping fact rows to
  dimension rows (what F- algorithms compute on).

:class:`FactorizedDesign` holds both: the dense form is the design with
every dimension in its fact block and no dimension block.  ``densify``
expands a design to the dense form; no training kernel calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.linalg.blocks import BlockLayout
from repro.linalg.groupsum import GroupIndex


def take_t(block: np.ndarray, at) -> np.ndarray:
    """``block[at].T`` — a tile's rows feature-major, ``(width, t)``
    with contiguous rows — touching only the tile: each memory order is
    read along its own contiguous axis (``ndarray.take`` would first
    copy a whole block that is not C-ordered, and a gather of row
    records misses the cache once per row, not once per value)."""
    if block.flags.f_contiguous:
        block_t = block.T
        return block_t[:, at] if isinstance(at, slice) else block_t.take(at, 1)
    if isinstance(at, slice) or not block.flags.c_contiguous:
        return np.ascontiguousarray(block[at].T)
    return np.ascontiguousarray(block.take(at, axis=0).T)


@dataclass
class FactorizedDesign:
    """A join batch kept in factorized (normalized) form.

    ``fact_block`` keeps the memory order it arrives in: column-major
    from :meth:`~repro.storage.relation.Relation.project_features` (the
    join paths), row-major from most tests.  The kernels read it
    feature-major, ``fact_block.T`` (free in the first order), and
    never by ``fact_block.take(rows, axis=0)``, which copies a whole
    column-major block before it takes one row.
    """

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

    @property
    def tile_width(self) -> int:
        """Floats per fact row and mixture component in the widest block
        a stacked kernel holds: the row's mass, its fact columns and
        (multi-way) those of all dimensions but one riding along."""
        widths = [block.shape[1] for block in self.dim_blocks]
        return 1 + self.fact_block.shape[1] + sum(widths) - min(widths, default=0)

    def left_t(self, i: int, at) -> np.ndarray:
        """Fact rows ``at`` (a slice or positions) of the joined columns
        left of dimension ``i ≥ 1``, feature-major ``(L_i, t)``: the fact
        block's and, gathered, the lower-numbered dimensions'."""
        parts = [take_t(self.fact_block, at)] + [
            take_t(block, group.codes[at])
            for block, group in zip(self.dim_blocks[: i - 1], self.groups)
        ]
        return parts[0] if i == 1 else np.concatenate(parts)

    # -- conversions ---------------------------------------------------------

    def densify(self, rows: slice = slice(None)) -> np.ndarray:
        """Materialize ``rows`` of the equivalent dense ``n × d`` batch."""
        parts = [self.fact_block[rows]]
        for block, group in zip(self.dim_blocks, self.groups):
            parts.append(block.take(group.codes[rows], axis=0))
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
        F- access path uses (:func:`~repro.join.batches.block_batch`) — the
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
