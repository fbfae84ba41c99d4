"""Factorized weighted sums and outer products (paper Eq. 13–18, 22–24).

The GMM M-step accumulates, over all joined tuples ``x`` with
responsibilities ``γ``,

* the weighted sum        ``Σₙ γₙ xₙ``               (for ``µ_k``, Eq. 3) and
* the weighted outer sum  ``Σₙ γₙ (x−µ)(x−µ)ᵀ``     (for ``Σ_k``, Eq. 4).

Both split exactly along relation boundaries.  For the outer sum the
``d × d`` result decomposes into the ``(q+1)²`` grid of Eq. 23, where:

* block ``(0,0)`` (UL, Eq. 15) runs over the ``n`` fact rows;
* cross blocks ``(0,j)``/``(j,0)`` (UR/LL, Eq. 16–17) contract the fact
  side down to ``m_j`` grouped rows first, so the ``d_S × d_Rj`` outer
  work runs at dimension cardinality;
* blocks ``(i,i)`` (LR, Eq. 18) need only the grouped responsibility
  mass per distinct dimension tuple — the headline reuse of Section V-B;
* blocks ``(i,j)``, ``i≠j≥1``, group the gathered ``R_i`` side by the
  ``R_j`` code before the small matrix product.

The kernels are *stacked* and *tiled*: a batch's sums for all ``K``
components are added up one position range at a time (from the tile
an EM walk's E-step centred) and turned into the result once per batch
(``finish_*``).  Dimension
``R_i`` reads its tile in its own sort order, so one ``reduceat``
yields the grouped mass and the grouped centered rows of everything
left of it in the layout — the fact columns and, multi-way, the
gathered lower-numbered dimensions — for every component at once.  A
dense batch is the case ``q = 0``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.linalg.design import FactorizedDesign, take_t


def dense_weighted_sum(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``Σₙ wₙ · rowsₙ`` — the reference for Eq. 3's numerator."""
    rows = np.asarray(rows, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if rows.shape[0] != weights.shape[0]:
        raise ModelError(
            f"rows {rows.shape} incompatible with weights {weights.shape}"
        )
    return weights @ rows


def dense_weighted_outer(
    centered: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """``Σₙ wₙ (xₙ−µ)(xₙ−µ)ᵀ`` — the reference for Eq. 4's numerator."""
    centered = np.asarray(centered, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if centered.shape[0] != weights.shape[0]:
        raise ModelError(
            f"centered {centered.shape} incompatible with "
            f"weights {weights.shape}"
        )
    return centered.T @ (weights[:, None] * centered)


def zero_sums(design: FactorizedDesign, k: int, outer: bool) -> list[np.ndarray]:
    """Zeroed accumulators of a batch's M-step sums for ``k`` components.

    Entry 0 is the fact block's own, ``(k, 1 + d_S·outer, d_S)``: row 0
    ``Σ γ x_S`` and, with ``outer``, block ``(0,0)`` of Eq. 23 below it;
    entry ``i`` is dimension ``R_i``'s ``(k, 1 + L_i, s_i)`` over its
    ``s_i`` referenced tuples: the grouped mass and, with ``outer``, the
    grouped weighted centered rows of the ``L_i`` columns left of it.
    """
    offsets = design.layout.offsets
    d_s = offsets[1]
    return [np.zeros((k, 1 + d_s * outer, d_s))] + [
        np.zeros((k, 1 + offsets[i] * outer, group.present.size))
        for i, group in enumerate(design.groups, start=1)
    ]


def add_moment_tile(
    design: FactorizedDesign, i: int, rows, weights, left, centered, sums
) -> None:
    """Dimension ``R_i``'s share of Eq. 13–18 / 22–24 for positions
    ``rows`` of its sort order (storage order without dimensions), from
    the tile's ``(K, t)`` ``weights`` and its columns left of ``R_i``,
    raw (``left``) and less the centre (``centered``; ``None``: ``Σ γ x``
    alone).  ``Σ γ x_S`` and block ``(0,0)`` (UL, Eq. 15) are one product
    each, in dimension 1's walk; every dimension contracts its tile per
    distinct tuple, centering before grouping."""
    d_s = design.fact_block.shape[1]
    weighted = weights[:, None]
    if centered is not None:    # an E-step's tile is wider than L_1 = d_S
        centered = centered[:, : d_s if i == 1 else None]
        weighted = np.empty((len(weights), 1 + centered.shape[1], weights.shape[1]))
        weighted[:, 0] = weights
        np.multiply(centered, weights[:, None], out=weighted[:, 1:])
    if i == 1:
        sums[0][:, 0] += weights @ left[:d_s].T
        if centered is not None:
            sums[0][:, 1:] += weighted[:, 1:] @ centered.transpose(0, 2, 1)
    if design.groups:
        design.groups[i - 1].add_sorted_tile(weighted, rows, sums[i])


def finish_sum(design: FactorizedDesign, sums) -> np.ndarray:
    """``Σₙ γₙₖ xₙ``, ``(K, d)``: the dimension parts run at ``m_i``."""
    parts = [sums[0][:, 0]]
    for mass, block, group in zip(sums[1:], design.dim_blocks, design.groups):
        parts.append(mass[:, 0] @ block.take(group.present, axis=0))
    return np.concatenate(parts, axis=1)


def finish_outer(design: FactorizedDesign, means, sums) -> np.ndarray:
    """``Σₙ γₙₖ (xₙ−µₖ)(xₙ−µₖ)ᵀ``, ``(K, d, d)``, from the tile sums:
    per dimension one small product for its cross blocks (UR/LL,
    Eq. 16–17; ``(j,i)`` of Eq. 24) and one at ``m_i`` rows for block
    ``(i,i)`` (LR, Eq. 18), where only the mass depends on the data."""
    layout = design.layout
    out = np.empty((means.shape[0], layout.total, layout.total))
    out[:, : layout.sizes[0], : layout.sizes[0]] = sums[0][:, 1:]
    for i, grouped in enumerate(sums[1:], start=1):
        own, left = layout.slice_of(i), slice(0, layout.offsets[i])
        block = design.dim_blocks[i - 1].take(design.groups[i - 1].present, 0)
        centered = block - means[:, None, own]                 # (K, s_i, d_Ri)
        cross = grouped[:, 1:] @ centered                      # (K, L_i, d_Ri)
        out[:, left, own] = cross
        out[:, own, left] = cross.transpose(0, 2, 1)
        weighted = centered * grouped[:, 0, :, None]
        out[:, own, own] = weighted.transpose(0, 2, 1) @ centered
    return out


def add_dimension_walks(design, gamma, centre, sums, tiles, first: int = 1):
    """Each dimension's walk from ``first`` on over a stored ``(n, K)``
    ``gamma``, in its own sort order cut into row ranges by ``tiles(n,
    width)``: its share of ``Σγx`` and, about ``centre`` unless that is
    ``None``, of ``Sum_Σ``."""
    for i in range(first, max(design.num_dimensions, 1) + 1):
        order = design.groups[i - 1].order if design.groups else None
        for rows in tiles(design.n, gamma.shape[1] * (1 if centre is None else design.tile_width)):
            at = rows if order is None else order[rows]
            left = design.left_t(i, at) if i == 1 or centre is not None else None
            centered = None if centre is None else left - centre[:, : len(left), None]
            add_moment_tile(design, i, rows, take_t(gamma, at), left, centered, sums)
