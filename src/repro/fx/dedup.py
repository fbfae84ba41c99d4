"""Per-batch foreign-key deduplication, computed exactly once.

Every factorized code path starts the same way: sort each dimension's
FK column into ``(unique, inverse)`` so dimension-side work runs at
distinct-tuple cardinality ``m`` and is gathered back to the ``n``
request rows.  Before this module existed that sort happened twice per
batch — once in the runtime's :class:`~repro.runtime.planner.
BatchPlanner` (to count distinct RIDs) and again inside the chosen
predictor's gather/densify.  A :class:`DedupPlan` is the sort's result
as a first-class value: the batch assembler computes it once and
threads it through ``plan() → predict()``, and anything downstream
(cost models, cache lookups, grouped reductions) reads it instead of
calling ``np.unique`` again.

The plan is also the bridge to the training-side primitives: each
dimension's ``inverse`` array *is* a codes array in the sense of
:class:`repro.linalg.groupsum.GroupIndex`, and the one stable sort
:meth:`DedupPlan.for_batch` runs per FK column yields ``unique``,
``inverse`` *and* the group order, so :meth:`DimensionDedup.
group_index` (memoized on the dedup) hands grouped reductions an index
that never sorts again.  Training batches use exactly this bridge: the
join access paths (:mod:`repro.join.bnl`) build one plan per block —
on the first pass of a fit; later passes replay it from the join index
— and the factorized design's dimension blocks and group indexes both
derive from it.

This module is the repository's *only* home for deduplication:
:meth:`DedupPlan.for_batch` dedups FK columns, and
:func:`distinct_values` (the one ``np.unique`` call) is the utility
every other module uses when it needs sorted distinct integers (page
numbers, cache slots).  The AST test ``tests/fx/test_single_dedup.py``
enforces the monopoly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ModelError
from repro.linalg.groupsum import GroupIndex


def distinct_values(values) -> np.ndarray:
    """Sorted distinct values of an integer array.

    The one deduplication primitive the rest of the repository is
    allowed to use directly (page numbers, cache slots, row positions);
    FK columns go through :meth:`DedupPlan.for_batch` instead, which
    also keeps the inverse mapping.

    >>> distinct_values([3, 1, 3, 2, 1])
    array([1, 2, 3])
    """
    return np.unique(np.asarray(values))


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of an int64 column, as compact row numbers.

    Packing ``(key - min, row)`` into one int64 makes every element
    distinct, so the plain (SIMD) sort is a stable one — several times
    faster than ``argsort(kind="stable")``, which remains the fallback
    when the key range leaves no room for the row bits.
    """
    n = keys.shape[0]
    row_bits = max(n - 1, 1).bit_length()
    low = int(keys.min())
    if (int(keys.max()) - low).bit_length() + row_bits < 63:
        packed = ((keys - low) << row_bits) | np.arange(n)
        packed.sort()
        order = packed & ((1 << row_bits) - 1)
    else:
        order = np.argsort(keys, kind="stable")
    return order.astype(np.int32 if row_bits < 32 else np.int64, copy=False)


@dataclass(frozen=True)
class DimensionDedup:
    """One dimension's ``(unique, inverse)`` FK sort.

    ``unique`` holds the sorted distinct RIDs (int64); ``inverse`` maps
    each of the batch's fact rows to its position in ``unique``, so
    ``unique[inverse]`` reproduces the raw FK column.  ``order`` is the
    sort that produced them — the batch's rows in stable RID order —
    when :meth:`DedupPlan.for_batch` built the dedup, else ``None``.
    """

    unique: np.ndarray
    inverse: np.ndarray
    order: np.ndarray | None = None

    @property
    def m(self) -> int:
        """Distinct-RID count (the paper's ``m``)."""
        return int(self.unique.size)

    def gather(self, per_distinct: np.ndarray) -> np.ndarray:
        """Expand per-distinct rows back to request rows."""
        per_distinct = np.asarray(per_distinct)
        if per_distinct.shape[0] != self.m:
            raise ModelError(
                f"per-distinct values have {per_distinct.shape[0]} rows, "
                f"the plan holds {self.m} distinct RIDs"
            )
        return per_distinct[self.inverse]

    def group_index(self) -> GroupIndex:
        """The training-side grouped-reduction view of this dedup.

        ``inverse`` is already a codes array mapping fact rows to
        ``[0, m)`` and ``order`` its stable sort, so the
        :class:`~repro.linalg.groupsum.GroupIndex` — built once per
        dedup and shared by every caller — never sorts when the dedup
        kept its order, and sorts lazily, once, when it did not.
        """
        return self._group_index

    @cached_property
    def _group_index(self) -> GroupIndex:
        return GroupIndex.from_inverse(self.inverse, self.m, self.order)

    @property
    def nbytes(self) -> int:
        """Bytes of key-derived arrays held (the group index owns
        ``order`` and whatever it derived since)."""
        return (
            self.unique.nbytes
            + self.inverse.nbytes
            + self.group_index().nbytes
        )


@dataclass(frozen=True)
class DedupPlan:
    """The per-batch dedup of every dimension's FK column.

    Built once per assembled batch via :meth:`for_batch`; the planner
    reads :attr:`distinct` for its cost estimates and the predictors
    read each dimension's ``(unique, inverse)`` for cache lookups and
    gathers — one sort per batch per dimension, total.
    """

    rows: int
    dims: tuple[DimensionDedup, ...]

    @classmethod
    def for_batch(cls, fks) -> "DedupPlan":
        """Dedup one batch's canonical per-dimension FK arrays."""
        arrays = [
            np.asarray(fk).ravel().astype(np.int64, copy=False) for fk in fks
        ]
        rows = int(arrays[0].shape[0]) if arrays else 0
        dims = []
        for fk in arrays:
            if fk.shape[0] != rows:
                raise ModelError(
                    f"FK arrays disagree on batch size: {fk.shape[0]} "
                    f"vs {rows}"
                )
            if rows == 0:
                dims.append(DimensionDedup(fk, fk))
                continue
            order = _stable_order(fk)
            ordered = fk.take(order)
            first = np.empty(rows, dtype=bool)      # starts a new RID run
            first[0] = True
            np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
            inverse = np.empty(rows, dtype=np.int64)
            inverse[order] = np.cumsum(first) - 1
            dims.append(DimensionDedup(ordered[first], inverse, order))
        return cls(rows=rows, dims=tuple(dims))

    def permuted(self, permutation: np.ndarray) -> "DedupPlan":
        """The plan of the same batch with its rows reordered: same
        distinct RIDs, ``inverse`` taken through ``permutation`` — what
        :meth:`for_batch` would return for the reordered FK columns."""
        return DedupPlan(
            self.rows,
            tuple(
                DimensionDedup(dim.unique, dim.inverse.take(permutation))
                for dim in self.dims
            ),
        )

    @property
    def num_dimensions(self) -> int:
        return len(self.dims)

    @cached_property
    def distinct(self) -> tuple[int, ...]:
        """Per-dimension distinct-RID counts, in spec order."""
        return tuple(dim.m for dim in self.dims)

    @property
    def dedup_ratio(self) -> float:
        """How much the dedup shrank the batch: FK references per
        distinct RID, across all dimensions (1.0 for an empty batch —
        no shrink happened)."""
        total_distinct = sum(self.distinct)
        if total_distinct == 0:
            return 1.0
        return self.rows * self.num_dimensions / total_distinct

    def matches(self, rows: int, num_dimensions: int) -> bool:
        """Whether this plan describes a batch of the given shape."""
        return self.rows == rows and self.num_dimensions == num_dimensions


@dataclass
class DedupCounter:
    """Accumulates dedup bookkeeping over a stream of planned batches.

    The training drivers feed every batch's plan through one counter so
    a fit result can report the same ``dedup_ratio`` the serving
    runtime reports per model (:class:`repro.runtime.service.
    RuntimeStats`): FK references per distinct RID, across all observed
    batches.  ``1.0`` until the first non-empty batch — no shrink seen.
    """

    batches: int = 0
    rows: int = 0
    references: int = 0      # rows × dimensions, accumulated
    distinct: int = 0        # Σ per-batch per-dimension distinct RIDs

    def observe(self, plan: DedupPlan) -> None:
        """Fold one batch's plan into the running counters."""
        self.batches += 1
        self.rows += plan.rows
        self.references += plan.rows * plan.num_dimensions
        self.distinct += sum(plan.distinct)

    @property
    def dedup_ratio(self) -> float:
        """FK references per distinct RID across every observed batch."""
        if not self.distinct:
            return 1.0
        return self.references / self.distinct

    def as_extra(self) -> dict:
        """The counters in fit-result ``extra`` form."""
        return {
            "dedup_batches": self.batches,
            "dedup_rows": self.rows,
            "dedup_references": self.references,
            "dedup_distinct": self.distinct,
            "dedup_ratio": self.dedup_ratio,
        }
