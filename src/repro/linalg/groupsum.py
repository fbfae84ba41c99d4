"""Grouped (segment) reductions keyed by foreign-key codes.

Every reuse opportunity the paper identifies reduces to the same
primitive: a quantity computed per *distinct* dimension tuple is shared
by all fact tuples referencing it, and conversely per-fact quantities
are *accumulated* per distinct dimension tuple.  Given ``codes`` mapping
each of ``n`` fact rows to one of ``m`` dimension rows, we need

* ``gather``:   ``X_R[codes]`` — expand per-dimension values to fact rows;
* ``group sums``: ``G[r] = Σ_{i: codes[i]=r} w_i · X[i]`` — contract
  per-fact values down to dimension rows (the M-step blocks of
  Eq. 13–18 and the grouped responsibility mass ``N_k``).

:class:`GroupIndex` holds the codes; the sort order and segment starts
the ``reduceat`` reductions need are derived on first use and kept —
``gather``/``sum_weights`` never need them, so a consumer that only
gathers (default F-NN) never sorts.  A dedup that already sorted the
keys hands its order over (:meth:`GroupIndex.from_inverse`); one that
counted them leaves it to be derived from the codes, which is the same
permutation (the codes are the keys' ranks).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import ModelError


class GroupIndex:
    """Index of fact-row → dimension-row codes, sorted on demand.

    Parameters
    ----------
    codes:
        Integer array of shape ``(n,)`` with values in ``[0, num_groups)``.
    num_groups:
        The number of dimension rows ``m``.  Groups without any member
        contribute zero rows to every reduction.
    """

    def __init__(self, codes: np.ndarray, num_groups: int) -> None:
        codes = np.asarray(codes)
        if codes.ndim != 1:
            raise ModelError(f"codes must be 1-D, got shape {codes.shape}")
        if not np.issubdtype(codes.dtype, np.integer):
            raise ModelError(f"codes must be integers, got {codes.dtype}")
        if num_groups <= 0:
            raise ModelError(f"num_groups must be positive, got {num_groups}")
        if codes.size and (codes.min() < 0 or codes.max() >= num_groups):
            raise ModelError(
                f"codes out of range [0, {num_groups}): "
                f"[{codes.min()}, {codes.max()}]"
            )
        self.codes = codes
        self.num_groups = int(num_groups)

    @classmethod
    def from_inverse(
        cls,
        inverse: np.ndarray,
        num_groups: int,
        order: np.ndarray | None = None,
    ) -> "GroupIndex":
        """Build from a dedup's ``inverse`` (and, if it kept one, its sort).

        The ``inverse`` array of a dedup *is* a codes array with values
        in ``[0, num_groups)``; ``order`` is the stable sort of the keys
        the dedup already paid for (see :meth:`repro.fx.dedup.
        DimensionDedup.group_index`) — with it the grouped reductions
        never sort, without it they sort once, on first use.  An empty
        dedup (``num_groups == 0``) yields a single empty group, keeping
        zero-row batches well-shaped.  A dedup's ``inverse`` is in range
        by construction, so the constructor's range scan is skipped.
        """
        index = cls.__new__(cls)
        index.codes = inverse
        index.num_groups = max(int(num_groups), 1)
        if order is not None:
            index.order = order
        return index

    @property
    def n(self) -> int:
        """Number of fact rows indexed."""
        return self.codes.size

    @cached_property
    def counts(self) -> np.ndarray:
        """Fact-row count per group, shape ``(num_groups,)``."""
        return np.bincount(self.codes, minlength=self.num_groups)

    @cached_property
    def order(self) -> np.ndarray:
        """The stable permutation that sorts fact rows by group code:
        numpy's radix sort when the codes fit 16 bits, else
        :func:`stable_order`'s packed sort."""
        if self.num_groups > 1 << 16 and self.n:
            return stable_order(self.codes)
        order = np.argsort(self.codes.astype(np.uint16), kind="stable")
        return order.astype(_row_dtype(self.n), copy=False)

    @cached_property
    def _segment_starts(self) -> np.ndarray:
        """Where each present group's run starts in :attr:`order`."""
        # A local bincount, not ``self.counts``: no reduction needs the
        # counts afterwards, so they are not worth 8 B per group kept.
        counts = np.bincount(self.codes, minlength=self.num_groups)
        return (np.cumsum(counts) - counts)[counts > 0]

    @property
    def nbytes(self) -> int:
        """Bytes of the derived arrays held so far (``codes`` excluded)."""
        held = vars(self)       # cached properties land here once computed
        return sum(
            held[name].nbytes
            for name in ("counts", "order", "_segment_starts")
            if name in held
        )

    # -- reductions --------------------------------------------------------

    def sum_weights(self, weights: np.ndarray) -> np.ndarray:
        """``out[r] = Σ_{i: codes[i]=r} weights[i]`` (shape ``(m,)``)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.n,):
            raise ModelError(
                f"weights shape {weights.shape} != ({self.n},)"
            )
        return np.bincount(
            self.codes, weights=weights, minlength=self.num_groups
        )

    def presort(self, values: np.ndarray) -> np.ndarray:
        """Reorder fact rows into this index's sorted-by-code order.

        Presorting data that is reused across many reductions (e.g. the
        fact feature block, reduced once per mixture component) turns
        each subsequent :meth:`sum_rows` into a single ``reduceat``
        pass with no per-call gather.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape[0] != self.n:
            raise ModelError(
                f"values rows {values.shape[0]} != indexed rows {self.n}"
            )
        return values.take(self.order, axis=0)

    def sum_rows(
        self,
        values: np.ndarray,
        weights: np.ndarray | None = None,
        *,
        presorted: bool = False,
    ) -> np.ndarray:
        """Group-sum rows: ``out[r] = Σ_{i: codes[i]=r} w_i · values[i]``.

        ``values`` has shape ``(n, c)``; the result has shape ``(m, c)``.
        With ``presorted=True`` both ``values`` and ``weights`` must
        already be in :meth:`presort` order.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != self.n:
            raise ModelError(
                f"values rows {values.shape[0]} != indexed rows {self.n}"
            )
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (self.n,):
                raise ModelError(
                    f"weights shape {weights.shape} != ({self.n},)"
                )
        if self.n == 0:
            return np.zeros((self.num_groups, values.shape[1]))
        if not presorted:
            values = values.take(self.order, axis=0)
            weights = None if weights is None else weights.take(self.order)
        if weights is not None:
            values = values * weights[:, None]
        segment_sums = np.add.reduceat(
            values, self._segment_starts, axis=0
        )
        if segment_sums.shape[0] == self.num_groups:    # no empty group
            return segment_sums
        out = np.zeros((self.num_groups, values.shape[1]))
        out[np.flatnonzero(self.counts)] = segment_sums
        return out

    @property
    def present(self) -> np.ndarray:
        """Codes of the groups that have members, ascending: the
        groups a reduction over the sort order yields, in its order."""
        return self.codes.take(self.order.take(self._segment_starts))

    def add_sorted_tile(self, values: np.ndarray, rows: slice, out) -> None:
        """Add the group sums of one tile of the sort order into ``out``.

        ``values`` is ``(..., t)``, its last axis the fact rows
        ``order[rows]``, and ``out`` is ``(..., s)`` over the
        :attr:`present` groups: one ``reduceat`` along the contiguous
        axis serves every leading row (all mixture components at once)
        and a tile's groups are one slice of ``out``.  A group whose run
        crosses the tile's edge is completed by the neighbouring tile.
        """
        starts = self._segment_starts
        first = np.searchsorted(starts, rows.start, side="right") - 1
        last = np.searchsorted(starts, rows.stop)
        out[..., first:last] += np.add.reduceat(
            values, np.maximum(starts[first:last] - rows.start, 0), axis=-1
        )

    def gather(self, per_group: np.ndarray) -> np.ndarray:
        """Expand per-group rows to fact rows: ``per_group[codes]``."""
        per_group = np.asarray(per_group)
        if per_group.shape[0] != self.num_groups:
            raise ModelError(
                f"per_group has {per_group.shape[0]} rows, "
                f"expected {self.num_groups}"
            )
        return per_group.take(self.codes, axis=0)


def _row_dtype(n: int):
    """The narrowest signed dtype that numbers ``n`` rows."""
    return np.int32 if n <= 1 << 31 else np.int64


def stable_order(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of a non-empty integer column, as compact row
    numbers.

    Packing ``(key - min, row)`` into one int64 makes every element
    distinct, so the plain (SIMD) sort is a stable one — several times
    faster than ``argsort(kind="stable")``, which remains the fallback
    when the key range leaves no room for the row bits.
    """
    keys = keys.astype(np.int64, copy=False)
    n = keys.shape[0]
    row_bits = max(n - 1, 1).bit_length()
    low = int(keys.min())
    if (int(keys.max()) - low).bit_length() + row_bits < 63:
        packed = ((keys - low) << row_bits) | np.arange(n)
        packed.sort()
        order = packed & ((1 << row_bits) - 1)
    else:
        order = np.argsort(keys, kind="stable")
    return order.astype(_row_dtype(n), copy=False)


# A key index (and a serving cache's slot table,
# :class:`~repro.serve.cache.SlotTable`) finds a key in
# ``[0, DIRECT_SPAN)`` with one ``take`` of a direct-address map, 8
# bytes per key of span up to the largest key it holds — so at most 16
# MiB.  Other keys (negative ones, or a key space too sparse to address)
# keep a sorted index and one ``searchsorted``.
DIRECT_SPAN = 1 << 21


class KeyIndex:
    """A dimension's (unique) primary keys, sorted once: a caller that
    probes one key column repeatedly pays a binary search per probe,
    not a sort.  Raises :class:`ModelError` if ``dim_keys`` contains
    duplicates.  Immutable: appended keys give a new index
    (:meth:`extended`).

    An index from :meth:`addressed` (a relation's
    :meth:`~repro.storage.relation.Relation.key_index`) also holds
    ``direct``, the map ``key → position`` (−1: no such key) over
    ``[0, max key]``, when every key is an integer in
    ``[0, DIRECT_SPAN)``; a probe with integer keys is then one
    ``take``.  ``direct`` is ``None`` on any other index."""

    def __init__(self, dim_keys: np.ndarray) -> None:
        dim_keys = np.asarray(dim_keys)
        self.order = np.argsort(dim_keys, kind="stable")
        self.sorted_keys = dim_keys[self.order]
        self.direct: np.ndarray | None = None
        if np.any(self.sorted_keys[1:] == self.sorted_keys[:-1]):
            raise ModelError("dimension keys contain duplicates")

    def addressed(self) -> "KeyIndex":
        """This index with a direct-address map beside it, where the
        keys allow one (the sorted arrays are shared, not copied)."""
        index = KeyIndex.__new__(KeyIndex)
        index.order, index.sorted_keys = self.order, self.sorted_keys
        index.direct = _direct_map(self.sorted_keys, self.order)
        return index

    def __len__(self) -> int:
        return self.sorted_keys.size

    @property
    def nbytes(self) -> int:
        mapped = 0 if self.direct is None else self.direct.nbytes
        return self.order.nbytes + self.sorted_keys.nbytes + mapped

    def extended(self, keys: np.ndarray) -> "KeyIndex":
        """The index of this key column with ``keys`` appended (they
        take positions ``len(self)`` on): the new keys are sorted and
        merged in by ``searchsorted``, the indexed ones are not
        re-sorted, and a direct-address map is rebuilt over the grown
        keys (a key set that allows none never grows into one that
        does).  Raises :class:`ModelError` if a new key repeats an
        indexed one or another new one."""
        keys = np.asarray(keys).ravel().astype(self.sorted_keys.dtype)
        order = np.argsort(keys, kind="stable")
        added = keys[order]
        at = np.searchsorted(self.sorted_keys, added)
        grown = KeyIndex.__new__(KeyIndex)
        grown.sorted_keys = np.insert(self.sorted_keys, at, added)
        grown.order = np.insert(self.order, at, order + len(self))
        if np.any(grown.sorted_keys[1:] == grown.sorted_keys[:-1]):
            raise ModelError("dimension keys contain duplicates")
        grown.direct = None if self.direct is None else _direct_map(
            grown.sorted_keys, grown.order
        )
        return grown

    def codes(self, fact_keys: np.ndarray) -> np.ndarray:
        """Positions of ``fact_keys`` in the key column (a dangling key
        raises :class:`ModelError` naming the first few)."""
        fact_keys = np.asarray(fact_keys)
        if self.direct is not None and fact_keys.dtype.kind in "iu":
            if not fact_keys.size:
                return np.empty(fact_keys.shape, dtype=np.int64)
            if fact_keys.min() >= 0 and fact_keys.max() < self.direct.size:
                codes = self.direct.take(fact_keys)
                if codes.min() >= 0:
                    return codes
            raise self._dangling(fact_keys)
        if fact_keys.size and not self.sorted_keys.size:
            raise self._dangling(fact_keys)
        positions = np.searchsorted(self.sorted_keys, fact_keys)
        positions = np.clip(positions, 0, self.sorted_keys.size - 1)
        if fact_keys.size and not np.array_equal(
            self.sorted_keys[positions], fact_keys
        ):
            raise self._dangling(fact_keys)
        return self.order[positions].astype(np.int64)

    def _dangling(self, fact_keys: np.ndarray) -> ModelError:
        missing = np.setdiff1d(fact_keys, self.sorted_keys)[:5]
        return ModelError(
            f"dangling foreign keys (first few): {missing.tolist()}"
        )


def _direct_map(sorted_keys: np.ndarray, order: np.ndarray):
    """``key → order[i]`` for ``key = sorted_keys[i]`` over
    ``[0, max key]``, −1 elsewhere; ``None`` unless the keys are
    integers in ``[0, DIRECT_SPAN)``."""
    if sorted_keys.dtype.kind not in "iu" or (sorted_keys.size and (
        sorted_keys[0] < 0 or sorted_keys[-1] >= DIRECT_SPAN
    )):
        return None
    span = int(sorted_keys[-1]) + 1 if sorted_keys.size else 0
    direct = np.full(span, -1, dtype=np.int64)
    direct[sorted_keys] = order
    return direct


def codes_for_keys(fact_keys: np.ndarray, dim_keys: np.ndarray) -> np.ndarray:
    """Positions of ``fact_keys`` in the (unique) key column ``dim_keys``
    through a one-off :class:`KeyIndex` (same errors)."""
    return KeyIndex(dim_keys).codes(fact_keys)
