"""Per-distinct-dimension-tuple partial results for serving.

Training factorizes by computing dimension-side quantities once per
*distinct* dimension tuple and reusing them across all fact tuples that
reference it (Sections V-B and VI-A1).  Serving has exactly the same
structure: a prediction request touches ``n`` fact tuples but only
``m ≤ n`` distinct dimension tuples, so the dimension-side share of the
score is computed once per RID and gathered.

Two partial kinds exist, one per model family:

* :class:`NNPartialBuilder` — the first-layer slice
  ``X_{R_i} W_{R_i}ᵀ`` of Section VI-A1 (the reused term ``T2``), the
  last dimension's with the first-layer bias folded in;
* :class:`GMMPartialBuilder` — the dimension's row of the E-step's
  quadratic-form table (Eq. 9–12/19): per component the UR+LL
  coefficients against everything left of the dimension and the LR
  scalar, plus (multi-way joins, all but the last dimension) the raw
  features later dimensions pair with.

Partials are flat float64 rows keyed by RID so they can live in a
:class:`~repro.serve.cache.PartialCache`; :class:`DimensionLookup`
resolves RIDs back to heap rows (page reads charged to the database's
I/O accounting, optionally through its buffer pool).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ModelError
from repro.linalg.blocks import BlockLayout
from repro.linalg.quadform import quadform_table
from repro.storage.buffer import BufferPool
from repro.storage.relation import Relation


def partial_fingerprint(*parts) -> str:
    """A deterministic digest of everything a partial's value depends on.

    Two builders with equal fingerprints compute bit-identical partial
    rows for every input, which is the safety condition for
    cross-model cache sharing in :class:`~repro.fx.store.PartialStore`.
    Arrays hash by dtype, shape and exact bytes; everything else by its
    ``str`` form.
    """
    digest = hashlib.sha1()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(str(part.dtype).encode())
            digest.update(str(part.shape).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(str(part).encode())
        digest.update(b"|")
    return digest.hexdigest()


class DimensionLookup:
    """Point lookups of dimension-relation rows by primary key.

    Keys resolve through the relation's
    :meth:`~repro.storage.relation.Relation.key_index` (construction
    builds it if need be, and fails if keys repeat); feature rows are
    fetched page-at-a-time on demand, so a predictor never needs the
    dimension relation resident — only the pages a request actually
    touches are read, and a shared
    :class:`~repro.storage.buffer.BufferPool` absorbs repeats.
    """

    def __init__(
        self, relation: Relation, *, buffer_pool: BufferPool | None = None
    ) -> None:
        self.relation = relation
        self.buffer_pool = buffer_pool
        relation.key_index()

    def row_positions(self, keys: np.ndarray) -> np.ndarray:
        """Heap row numbers holding ``keys`` (raises on dangling keys)."""
        return self.relation.key_index().codes(keys)

    def features_for(self, keys: np.ndarray) -> np.ndarray:
        """Feature rows for ``keys``, reading only the pages that hold them."""
        positions = self.row_positions(keys)
        heap = self.relation.heap
        if self.buffer_pool is None:
            rows = heap.read_rows(positions)
        else:
            rows = self.buffer_pool.read_rows(heap, positions)
        return self.relation.project_features(rows)


class NNPartialBuilder:
    """First-layer partial rows for one dimension relation.

    ``compute`` maps distinct dimension feature rows ``(m, d_Ri)`` to
    the reused pre-activation slice ``X_{R_i} W_{R_i}ᵀ`` of shape
    ``(m, n_h)`` — the serving twin of
    :meth:`~repro.nn.engines.FactorizedNNEngine.dimension_partials`.
    The last dimension's builder also takes the first layer's ``bias``
    and folds it in, as training does (the paper's reused term ``T2``,
    Section VI-A1): it is added once per distinct tuple instead of once
    per request row, and it is part of the fingerprint, so two networks
    that differ only in their bias share every other dimension's cache.
    """

    def __init__(
        self, weight_block: np.ndarray, bias: np.ndarray | None = None
    ) -> None:
        self.weight_block = np.asarray(weight_block, dtype=np.float64)
        if self.weight_block.ndim != 2:
            raise ModelError(
                f"weight block must be 2-D, got {self.weight_block.shape}"
            )
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (self.width,):
                raise ModelError(
                    f"bias shape {bias.shape} != ({self.width},)"
                )
        self.bias = bias

    @property
    def width(self) -> int:
        """Floats per partial row (the hidden width ``n_h``)."""
        return self.weight_block.shape[0]

    @property
    def fingerprint(self) -> str:
        """Value-identity of this builder's partials (see
        :func:`partial_fingerprint`); computed lazily and cached."""
        if not hasattr(self, "_fingerprint"):
            folded = () if self.bias is None else (self.bias,)
            self._fingerprint = partial_fingerprint(
                "nn-layer1", self.weight_block, *folded
            )
        return self._fingerprint

    def compute(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.shape[1] != self.weight_block.shape[1]:
            raise ModelError(
                f"dimension features have width {features.shape[1]}, "
                f"weight block expects {self.weight_block.shape[1]}"
            )
        partials = features @ self.weight_block.T
        if self.bias is not None:
            partials += self.bias
        return partials


class GMMPartialBuilder:
    """Quadratic-form partial rows for one dimension (Eq. 9–12 / 19).

    A distinct tuple's partial *is* its row of the training kernel's
    table (:func:`~repro.linalg.quadform.quadform_table`), flattened:
    for each of the ``K`` components the UR + LL coefficients against
    the ``L_i`` joined columns left of dimension ``i`` (1-based; block
    0 is the fact relation) and the LR scalar — ``K·(L_i + 1)`` floats
    — followed by the raw ``x_{R_i}`` when a later dimension's
    coefficients pair with it (every dimension but the last).
    """

    def __init__(
        self,
        dim_index: int,
        layout: BlockLayout,
        means: np.ndarray,
        precisions: np.ndarray,
    ) -> None:
        if not 1 <= dim_index < layout.nblocks:
            raise ModelError(
                f"dim_index {dim_index} out of range [1, {layout.nblocks})"
            )
        self.dim_index = dim_index
        self.layout = layout
        self.means = np.asarray(means, dtype=np.float64)
        self.precisions = np.asarray(precisions, dtype=np.float64)
        self._table_width = self.means.shape[0] * (
            layout.offsets[dim_index] + 1
        )
        self._keeps_features = dim_index < layout.nblocks - 1
        self._fingerprint = partial_fingerprint(
            "gmm-quadform", dim_index, tuple(layout.sizes),
            self.means, self.precisions,
        )

    @property
    def width(self) -> int:
        """Floats per partial row: ``K·(L_i + 1) + d_Ri·[i < q]``."""
        return self._table_width + (
            self.layout.sizes[self.dim_index] * self._keeps_features
        )

    @property
    def fingerprint(self) -> str:
        """Value-identity of this builder's partials (see
        :func:`partial_fingerprint`)."""
        return self._fingerprint

    def compute(self, features: np.ndarray) -> np.ndarray:
        """Partial rows for distinct dimension feature rows ``(m, d_Ri)``."""
        features = np.asarray(features, dtype=np.float64)
        d_i = self.layout.sizes[self.dim_index]
        if features.shape[1] != d_i:
            raise ModelError(
                f"dimension features have width {features.shape[1]}, "
                f"block {self.dim_index} expects {d_i}"
            )
        table = quadform_table(
            features, self.dim_index, self.layout, self.means,
            self.precisions,
        ).reshape(features.shape[0], self._table_width)
        if self._keeps_features:
            return np.concatenate([table, features], axis=1)
        return table

    def split(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Partial rows ``(m, width)`` as the kernel reads them: the
        ``(m, K, L_i + 1)`` table and the ``(m, d_Ri)`` feature block
        (zero columns wide for the last dimension), each contiguous —
        the kernel gathers from them with ``take`` once per tile, which
        copies the whole of a strided array first."""
        cut = self._table_width
        table = np.ascontiguousarray(rows[:, :cut])
        return (
            table.reshape(rows.shape[0], self.means.shape[0], -1),
            np.ascontiguousarray(rows[:, cut:]),
        )
