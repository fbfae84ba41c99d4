"""Block partitioning of feature space by relation boundaries.

The joined table ``T`` concatenates feature vectors ``[x_S x_R1 … x_Rq]``
(Section IV).  Every factorized computation in the paper operates on the
induced block structure: vectors split into ``q+1`` segments, matrices
into ``(q+1) × (q+1)`` blocks (Eq. 8, 20, 21, 23).  :class:`BlockLayout`
captures that partition once so the GMM and NN code never recomputes
offsets by hand.

Block 0 is always the fact relation ``S`` (denoted ``R_0`` in the
paper's multi-way notation); blocks ``1..q`` are the dimension
relations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SchemaError

#: Bytes of one ``(tile, widest block)`` float64 array of a training
#: step (an NN layer's activations, the ``K`` stacked EM components):
#: a tile's handful of blocks stay in L2, and its GEMMs amortize the
#: Python between them (0.25 to 4 MiB measured alike for SGD and EM).
TILE_BYTES = 1 << 19


@dataclass(frozen=True)
class BlockLayout:
    """An ordered partition of ``d`` feature dimensions into blocks."""

    sizes: tuple[int, ...]

    def __init__(self, sizes) -> None:
        sizes = tuple(int(s) for s in sizes)
        if not sizes:
            raise SchemaError("block layout needs at least one block")
        if any(s < 0 for s in sizes):
            raise SchemaError(f"block sizes must be non-negative: {sizes}")
        if sum(sizes) == 0:
            raise SchemaError("block layout must cover at least one dimension")
        object.__setattr__(self, "sizes", sizes)

    # -- geometry ------------------------------------------------------------

    @property
    def nblocks(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        """Total dimensionality ``d = d_S + d_R1 + … + d_Rq``."""
        return sum(self.sizes)

    @property
    def offsets(self) -> tuple[int, ...]:
        """Start offset of each block (length ``nblocks + 1``)."""
        offsets = [0]
        for size in self.sizes:
            offsets.append(offsets[-1] + size)
        return tuple(offsets)

    def slice_of(self, block: int) -> slice:
        """The column slice occupied by ``block``."""
        self._check_block(block)
        offsets = self.offsets
        return slice(offsets[block], offsets[block + 1])

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.nblocks:
            raise SchemaError(
                f"block {block} out of range [0, {self.nblocks})"
            )

    # -- vector and matrix splitting ------------------------------------------

    def split_vector(self, vector: np.ndarray) -> list[np.ndarray]:
        """Split the last axis of ``vector`` into per-block segments.

        Works on 1-D vectors (``d``) and batches (``n × d``) alike —
        this is Eq. 8 / Eq. 20's ``PD_{R_m}`` partition.
        """
        vector = np.asarray(vector)
        if vector.shape[-1] != self.total:
            raise SchemaError(
                f"vector has {vector.shape[-1]} dims, layout covers {self.total}"
            )
        return [vector[..., self.slice_of(i)] for i in range(self.nblocks)]

    def split_matrix(self, matrix: np.ndarray) -> list[list[np.ndarray]]:
        """Split a ``d × d`` matrix into the ``(q+1)²`` grid of Eq. 21.

        ``result[i][j]`` is the block ``I_{ij}`` coupling relations
        ``R_i`` and ``R_j``.
        """
        matrix = np.asarray(matrix)
        if matrix.shape != (self.total, self.total):
            raise SchemaError(
                f"matrix shape {matrix.shape} != ({self.total}, {self.total})"
            )
        return [
            [
                matrix[self.slice_of(i), self.slice_of(j)]
                for j in range(self.nblocks)
            ]
            for i in range(self.nblocks)
        ]

    def split_columns(self, matrix: np.ndarray) -> list[np.ndarray]:
        """Split the columns of an ``m × d`` matrix into per-block slabs.

        This is the weight-matrix split of Section VI-A1: ``W`` becomes
        ``[W_S | W_R1 | … | W_Rq]``.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != self.total:
            raise SchemaError(
                f"matrix shape {matrix.shape} incompatible with layout "
                f"width {self.total}"
            )
        return [matrix[:, self.slice_of(i)] for i in range(self.nblocks)]

    # -- reassembly ----------------------------------------------------------

    def assemble_vector(self, parts: list[np.ndarray]) -> np.ndarray:
        """Concatenate per-block segments back into a full vector/batch."""
        if len(parts) != self.nblocks:
            raise SchemaError(
                f"expected {self.nblocks} parts, got {len(parts)}"
            )
        for i, part in enumerate(parts):
            if part.shape[-1] != self.sizes[i]:
                raise SchemaError(
                    f"part {i} has width {part.shape[-1]}, "
                    f"expected {self.sizes[i]}"
                )
        return np.concatenate(parts, axis=-1)

    def assemble_matrix(self, blocks: list[list[np.ndarray]]) -> np.ndarray:
        """Reassemble the block grid into a dense ``d × d`` matrix."""
        if len(blocks) != self.nblocks:
            raise SchemaError(
                f"expected {self.nblocks} block rows, got {len(blocks)}"
            )
        return np.block([[blocks[i][j] for j in range(self.nblocks)]
                         for i in range(self.nblocks)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockLayout(sizes={self.sizes})"
