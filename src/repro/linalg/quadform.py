"""Factorized Mahalanobis quadratic forms (paper Eq. 7–12 and 19–21).

The GMM E-step needs ``(x − µ)ᵀ Σ⁻¹ (x − µ)`` for every joined tuple.
Writing ``I = Σ⁻¹`` and splitting ``x − µ`` by relation boundary into
``PD_{R_0} … PD_{R_q}`` (Eq. 20), the form decomposes exactly into

    Σᵢ Σⱼ  PDᵀ_{R_i} · I_{ij} · PD_{R_j}            (Eq. 19)

For the binary case these are the paper's four terms UL, UR, LL, LR
(Eq. 9–12).  The blocks that involve only dimension relations are
computed once per *distinct* dimension tuple and reused for every
matching fact tuple — that is the entire source of the E-step speedup.

The kernel is *stacked*: one call serves all ``K`` mixture components
on one row tile, in component-major / feature-major blocks ``(K, w,
t)`` — reductions run over the ``w`` axis, rows stay contiguous.  Each
dimension ``R_i`` pairs with everything *left* of it in the layout
(``S, R_1 … R_{i−1}``, the symmetric half of Eq. 19's double sum), so
its reusable work is one table per batch and its per-row work one
gather per tile.  A dense batch is the case ``q = 0``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.linalg.blocks import BlockLayout
from repro.linalg.design import FactorizedDesign


def quadform_table(
    block: np.ndarray,
    i: int,
    layout: BlockLayout,
    means: np.ndarray,
    matrices: np.ndarray,
) -> np.ndarray:
    """Everything of Eq. 19 that no fact row enters, for dimension
    ``R_i``'s distinct tuples ``block`` and all ``K`` components: an
    ``(m_i, K, L_i + 1)`` table, ``L_i`` the columns left of ``R_i`` —
    one row record per distinct tuple, so a tile gathers it with one
    ``take`` (and a partial cache keeps it as one flat row).

    Column ``L_i`` is the LR term ``PDᵀ_{R_i} I_{ii} PD_{R_i}``
    (Eq. 12); columns ``[0, L_i)`` are ``PD_{R_i} · (I_{i,left} +
    Iᵀ_{left,i})``, the UR + LL coefficients (Eq. 10–11) of the
    centered fact columns and of the lower-numbered dimensions'
    (multi-way) — never assuming a symmetric ``I``.
    """
    if block.shape[0] == 1:
        # One row would take the matrix-vector path, which rounds
        # differently: a tuple's record must not depend on its company.
        return quadform_table(block.repeat(2, 0), i, layout, means, matrices)[:1]
    own, left = layout.slice_of(i), slice(0, layout.offsets[i])
    centered = block - means[:, None, own]                    # (K, m_i, d_Ri)
    cross = matrices[:, own, left] + matrices[:, left, own].transpose(0, 2, 1)
    table = np.empty((block.shape[0], means.shape[0], left.stop + 1))
    table[:, :, :-1] = (centered @ cross).transpose(1, 0, 2)
    # A plain sum, not einsum: its SIMD split follows a row's
    # alignment, and a tuple must score the same at any row.
    diagonal = (centered @ matrices[:, own, own]) * centered
    table[:, :, -1] = diagonal.sum(axis=2).T
    return table


def quadform_tables(
    design: FactorizedDesign, means: np.ndarray, matrices: np.ndarray
) -> list[np.ndarray]:
    """One :func:`quadform_table` per dimension of a batch."""
    layout = design.layout
    return [
        quadform_table(block, i, layout, means, matrices)
        for i, block in enumerate(design.dim_blocks, start=1)
    ]


def stacked_quadratic_form(
    design: FactorizedDesign,
    centered: np.ndarray,
    matrices: np.ndarray,
    tables: list[np.ndarray],
    rows: slice | np.ndarray = slice(None),
) -> np.ndarray:
    """``(x−µ_k)ᵀ I_k (x−µ_k)`` for fact rows ``rows`` (a slice, or
    positions) and every component ``k``: ``(K, t)``, given those rows'
    columns left of the last dimension centred about each ``µ_k``
    (``centered``, ``(K, width, t)``, which the caller gathered once for
    every kernel of its tile) and the batch's :func:`quadform_tables`.

    Block ``(0,0)`` (UL, Eq. 9) is one batched product over the tile —
    irreducibly per fact row; each dimension adds one gather of its
    table.  The pairing of two dimensions varies per fact tuple, so the
    centered rows of all but the last ride along (``width`` columns).
    """
    layout = design.layout
    d_s = layout.sizes[0]
    coefficients = np.empty_like(centered)
    np.matmul(
        matrices[:, :d_s, :d_s], centered[:, :d_s], out=coefficients[:, :d_s]
    )
    coefficients[:, d_s:] = 0.0
    constant = 0.0
    for i, (table, group) in enumerate(zip(tables, design.groups), start=1):
        gathered = table.take(group.codes[rows], axis=0).transpose(1, 2, 0)
        coefficients[:, : layout.offsets[i]] += gathered[:, :-1]
        constant = gathered[:, -1] if i == 1 else constant + gathered[:, -1]
    coefficients *= centered
    return coefficients.sum(axis=1) + constant


def _whole_batch(design: FactorizedDesign, means, matrices) -> np.ndarray:
    """The stacked kernel over every row of ``design``, in one tile."""
    left = design.left_t(max(design.num_dimensions, 1), slice(None))
    tables = quadform_tables(design, means, matrices)
    return stacked_quadratic_form(design, left - means[:, : len(left), None], matrices, tables)


def _as_stack(design: FactorizedDesign, mean, matrix):
    mean = np.asarray(mean, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    if mean.shape != (design.d,) or matrix.shape != (design.d, design.d):
        raise ModelError(
            f"incompatible shapes: mean {mean.shape}, matrix "
            f"{matrix.shape}, design width {design.d}"
        )
    return mean[None], matrix[None]


def factorized_quadratic_form(
    design: FactorizedDesign, mean: np.ndarray, matrix: np.ndarray
) -> np.ndarray:
    """Per-fact-row quadratic form from factorized data (Eq. 19): the
    ``K = 1`` call of :func:`stacked_quadratic_form`, exactly equal (up
    to float associativity) to ``dense_quadratic_form(design.densify()
    - mean, matrix)``."""
    return _whole_batch(design, *_as_stack(design, mean, matrix))[0]


def dense_quadratic_form(centered: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Per-row quadratic form ``diag(C · M · Cᵀ)`` for dense rows ``C``
    (Eq. 7, what M-/S- compute): the stacked kernel with no dimension."""
    design = FactorizedDesign(centered, [], [])
    return factorized_quadratic_form(design, np.zeros(design.d), matrix)


def binary_quadratic_form_terms(
    design: FactorizedDesign, mean: np.ndarray, matrix: np.ndarray
) -> dict[str, np.ndarray]:
    """The four named terms UL, UR, LL, LR of Eq. 9–12 (binary joins).

    Exposed separately so tests can check each term against its dense
    counterpart: each is the quadratic form of ``matrix`` with the
    other three blocks zeroed — four stacked "components".
    """
    if design.num_dimensions != 1:
        raise ModelError(
            "UL/UR/LL/LR terms are defined for binary joins only; "
            f"got q={design.num_dimensions}"
        )
    means, matrices = _as_stack(design, mean, matrix)
    fact, dim = design.layout.slice_of(0), design.layout.slice_of(1)
    masked = np.zeros((4, design.d, design.d))
    for k, (i, j) in enumerate([(fact, fact), (fact, dim), (dim, fact), (dim, dim)]):
        masked[k, i, j] = matrices[0, i, j]
    terms = _whole_batch(design, np.repeat(means, 4, axis=0), masked)
    return dict(zip(("UL", "UR", "LL", "LR"), terms))
