"""Gaussian mixture model parameters and inference.

The model of Section III-A: ``p(x) = Σ_k π_k N(x | µ_k, Σ_k)`` with full
(arbitrary) covariance matrices — the paper's most general setting, in
contrast to the independent-GMM restriction of the earlier poster
paper [Cheng & Koudas, ICDE 2019].

Inference is one function, :func:`posteriors`: Eq. 2 over the factorized
quadratic form of Eq. 19, tile by tile with all ``K`` components
stacked.  The serving predictors call it on a request (its dimension
tables read from a partial cache), the maintainer on a delta, and
:class:`GaussianMixtureModel` on dense rows — a design with no
dimension relation.  Training walks the same tiles in :func:`em_step`,
whose M-step sums read each tile the E-step gathered and centred; the
maintained statistics fold the same walk unfinished (:func:`em_sums`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.linalg.blocks import TILE_BYTES
from repro.linalg.design import FactorizedDesign
from repro.linalg.outer import (
    add_dimension_walks, add_moment_tile, finish_outer, finish_sum, zero_sums,
)
from repro.linalg.quadform import quadform_tables, stacked_quadratic_form

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GMMParams:
    """The parameter triple ``(π, µ, Σ)`` of a K-component mixture."""

    weights: np.ndarray      # (K,)
    means: np.ndarray        # (K, d)
    covariances: np.ndarray  # (K, d, d)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.covariances = np.asarray(self.covariances, dtype=np.float64)
        k = self.weights.shape[0]
        if self.weights.ndim != 1 or k == 0:
            raise ModelError(
                f"weights must be a non-empty vector, got {self.weights.shape}"
            )
        if self.means.ndim != 2 or self.means.shape[0] != k:
            raise ModelError(
                f"means shape {self.means.shape} incompatible with K={k}"
            )
        d = self.means.shape[1]
        if self.covariances.shape != (k, d, d):
            raise ModelError(
                f"covariances shape {self.covariances.shape} != ({k},{d},{d})"
            )
        if not np.isclose(self.weights.sum(), 1.0, atol=1e-6):
            raise ModelError(
                f"mixing coefficients must sum to 1, got {self.weights.sum()}"
            )
        if np.any(self.weights < 0):
            raise ModelError("mixing coefficients must be non-negative")

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    def copy(self) -> "GMMParams":
        return GMMParams(
            self.weights.copy(), self.means.copy(), self.covariances.copy()
        )

    def allclose(
        self, other: "GMMParams", *, rtol: float = 1e-7, atol: float = 1e-9
    ) -> bool:
        """Parameter-wise closeness — the exactness criterion of V-B."""
        return (
            np.allclose(self.weights, other.weights, rtol=rtol, atol=atol)
            and np.allclose(self.means, other.means, rtol=rtol, atol=atol)
            and np.allclose(
                self.covariances, other.covariances, rtol=rtol, atol=atol
            )
        )


class ComponentPrecisions:
    """Per-component precision matrices ``I_k = Σ_k⁻¹`` and log-dets.

    Computed once per EM iteration via Cholesky (O(K·d³)); feature
    vectors are *not* involved (the paper notes ``1/√((2π)^d |Σ_k|)``
    needs no data), so this part is shared verbatim by all three
    algorithms.
    """

    def __init__(self, covariances: np.ndarray, reg: float = 0.0) -> None:
        covariances = np.asarray(covariances, dtype=np.float64)
        if covariances.ndim != 3 or covariances.shape[1] != covariances.shape[2]:
            raise ModelError(
                f"covariances must be (K, d, d), got {covariances.shape}"
            )
        k, d, _ = covariances.shape
        self.precisions = np.empty_like(covariances)
        self.log_dets = np.empty(k)
        eye = np.eye(d)
        for j in range(k):
            sigma = covariances[j] + reg * eye
            try:
                chol = np.linalg.cholesky(sigma)
            except np.linalg.LinAlgError as exc:
                raise ModelError(
                    f"component {j} covariance is not positive definite; "
                    "increase reg_covar"
                ) from exc
            self.log_dets[j] = 2.0 * np.log(np.diag(chol)).sum()
            # Σ⁻¹ from the Cholesky factor: solve L Lᵀ X = I.
            inv_chol = np.linalg.solve(chol, eye)
            self.precisions[j] = inv_chol.T @ inv_chol

    @property
    def n_components(self) -> int:
        return self.log_dets.shape[0]


def log_gaussian_from_quadform(
    quadform: np.ndarray, log_det: float, d: int
) -> np.ndarray:
    """``log N(x|µ,Σ)`` given the quadratic form values (Eq. 1).

    This is the seam the factorization exploits: M-/S- and F- compute
    the quadratic form differently but share everything from here on.
    """
    return -0.5 * (d * LOG_2PI + log_det + quadform)


def log_responsibilities(
    log_gauss: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """E-step posteriors (Eq. 2) in a numerically stable way.

    Parameters
    ----------
    log_gauss:
        ``(n, K)`` array of ``log N(x_n | µ_k, Σ_k)``.
    weights:
        Mixing coefficients ``π``.

    Returns
    -------
    (gamma, log_likelihoods):
        ``gamma`` is the ``(n, K)`` responsibility matrix; the second
        element holds each tuple's ``log Σ_k π_k N(x|µ_k,Σ_k)``
        (summed over tuples this is Eq. 6).
    """
    weighted = log_gauss + np.log(weights)[None, :]
    peak = weighted.max(axis=1, keepdims=True)
    shifted = np.exp(weighted - peak)
    norm = shifted.sum(axis=1, keepdims=True)
    gamma = shifted / norm
    log_likelihoods = (peak + np.log(norm)).ravel()
    return gamma, log_likelihoods


def tiles(n: int, width: int):
    """Row ranges of a batch, ``TILE_BYTES`` per ``width``-float block."""
    tile = max(1, TILE_BYTES // (8 * width))
    for start in range(0, n, tile):
        yield slice(start, min(start + tile, n))


def _log_density_tiles(design, params, precisions, tables, weighted, order=None):
    """Per tile of ``order`` (storage order without), ``(rows, at, block,
    log_likelihoods, left, centered)``: fact rows ``at``'s ``(K, t)``
    ``log N(x | µ_k, Σ_k)``, Eq. 1 over Eq. 19 — the one place a mixture
    meets the stacked kernel; ``weighted``, plus ``log π_k`` and turned
    into ``γ`` in place (Eq. 2) beside the rows' log-likelihoods.  The
    rows' columns left of the last dimension, ``(w, t)``, and those
    less each ``µ_k`` are gathered once for every kernel of the tile."""
    means, matrices = params.means, precisions.precisions
    if tables is None:
        tables = quadform_tables(design, means, matrices)
    # ``n_features``, not ``design.d``: a request's design carries no
    # feature block for its last dimension (the table is all it needs).
    shift = -0.5 * (params.n_features * LOG_2PI + precisions.log_dets)
    if weighted:
        shift = np.log(params.weights) + shift
    for rows in tiles(design.n, params.n_components * design.tile_width):
        at = rows if order is None else order[rows]
        lone = rows.stop - rows.start == 1
        if lone:
            # A lone row takes BLAS's matrix-vector path and numpy's
            # pairwise reductions, which round differently from the
            # batched ones: scored twice side by side, a tuple gets
            # the same bits alone as inside any batch.
            at = np.repeat(np.r_[at], 2)
        left = design.left_t(max(design.num_dimensions, 1), at)
        centered = left - means[:, : len(left), None]
        block = stacked_quadratic_form(design, centered, matrices, tables, at)
        block *= -0.5
        block += shift[:, None]
        log_likelihoods = None
        if weighted:
            peak = block.max(axis=0)
            block -= peak
            np.exp(block, out=block)
            norm = block.sum(axis=0)
            block /= norm
            log_likelihoods = peak + np.log(norm)
        tile = (at, block, log_likelihoods, left, centered)
        if lone:        # the first of the two copies
            tile = (None if a is None else a[..., :1] for a in tile)
        yield rows, *tile


def posteriors(
    design: FactorizedDesign,
    params: GMMParams,
    precisions: ComponentPrecisions,
    tables: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The E-step (Eq. 2) of ``design``'s rows: ``(gamma, log_likelihoods)``
    as :func:`log_responsibilities` defines them, ``gamma`` C-ordered
    ``(n, K)`` — log-sum-exp in place on each tile's block.

    ``tables`` are the design's :func:`~repro.linalg.quadform.
    quadform_tables` when the caller already holds them (serving reads
    them from its partial caches); otherwise they are computed here,
    once per call.
    """
    gamma = np.empty((design.n, params.n_components))
    log_likelihoods = np.empty(design.n)
    for _, at, block, tile_ll, *_ in _log_density_tiles(
        design, params, precisions, tables, weighted=True
    ):
        gamma[at] = block.T
        log_likelihoods[at] = tile_ll
    return gamma, log_likelihoods


def em_sums(design: FactorizedDesign, params: GMMParams, precisions, centre):
    """One batch of Algorithm 1's walk, unfinished: ``(Σγ, log-likelihood,
    the tile sums about centre, γ)``, over row tiles of dimension 1's
    sort order (storage order if none): the E-step's centred tile feeds
    ``Σγx``, block ``(0,0)`` and dimension 1's grouped sums; ``γ`` stays
    ``(K, t)``.  Only a later dimension walks again, over a stored
    ``(n, K)`` ``γ`` — returned, ``None`` where ``q ≤ 1`` — and only a
    ``centre`` other than ``params.means`` is centred twice."""
    k, q = params.n_components, design.num_dimensions
    sums = zero_sums(design, k, outer=True)
    mass, log_likelihood = np.zeros(k), 0.0
    gamma = np.empty((design.n, k)) if q > 1 else None
    order = design.groups[0].order if q else None
    for rows, at, block, tile_ll, left, centered in _log_density_tiles(
        design, params, precisions, None, True, order
    ):
        log_likelihood += float(tile_ll.sum())
        mass += block.sum(axis=1)
        if centre is not params.means:
            centered = left - centre[:, : len(left), None]
        add_moment_tile(design, 1, rows, block, left, centered, sums)
        if gamma is not None:
            gamma[at] = block.T
    add_dimension_walks(design, gamma, centre, sums, tiles, first=2)
    return mass, log_likelihood, sums, gamma


def em_step(design: FactorizedDesign, params: GMMParams, precisions, centre):
    """:func:`em_sums` finished: ``(Σγ, log-likelihood, Sum_µ, Sum_Σ
    about centre)``."""
    mass, log_likelihood, sums, _ = em_sums(design, params, precisions, centre)
    return mass, log_likelihood, finish_sum(design, sums), finish_outer(design, centre, sums)


def moment_sums(design: FactorizedDesign, gamma: np.ndarray, centre) -> list:
    """One walk per dimension over a given ``(n, K)`` ``gamma``, its tile
    sums unfinished: ``Σγx`` and, about ``centre`` unless ``None``,
    ``Σγ(x−c)(x−c)ᵀ``."""
    sums = zero_sums(design, gamma.shape[1], outer=centre is not None)
    add_dimension_walks(design, gamma, centre, sums, tiles)
    return sums


def mu_sums(design: FactorizedDesign, gamma: np.ndarray) -> np.ndarray:
    """``Σₙ γₙₖ xₙ``, ``(K, d)``, tile by tile (Eq. 3's numerator)."""
    return finish_sum(design, moment_sums(design, gamma, None))


def sigma_sums(
    design: FactorizedDesign, gamma: np.ndarray, means: np.ndarray
) -> np.ndarray:
    """``Σₙ γₙₖ (xₙ−µₖ)(xₙ−µₖ)ᵀ``, ``(K, d, d)``, tile by tile (Eq. 4's
    numerator)."""
    return finish_outer(design, means, moment_sums(design, gamma, means))


def component_log_densities(
    design: FactorizedDesign,
    params: GMMParams,
    precisions: ComponentPrecisions,
    tables: list[np.ndarray] | None = None,
) -> np.ndarray:
    """``(n, K)`` values of ``log N(x_n | µ_k, Σ_k)`` — the blocks
    :func:`posteriors` normalizes, before the mixing weights."""
    out = np.empty((design.n, params.n_components))
    for _, at, block, *_ in _log_density_tiles(
        design, params, precisions, tables, weighted=False
    ):
        out[at] = block.T
    return out


class GaussianMixtureModel:
    """Inference-side wrapper around fitted :class:`GMMParams`."""

    def __init__(self, params: GMMParams, *, reg_covar: float = 1e-6) -> None:
        self.params = params
        self.reg_covar = reg_covar
        self._precisions = ComponentPrecisions(params.covariances, reg_covar)

    @property
    def precisions(self) -> ComponentPrecisions:
        """The fitted precision matrices and log-dets (computed once;
        reused by the factorized serving path)."""
        return self._precisions

    def _wide(self, data: np.ndarray) -> FactorizedDesign:
        """Dense rows as the design they are: every column a fact column."""
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if data.shape[1] != self.params.n_features:
            raise ModelError(
                f"data has {data.shape[1]} features, "
                f"model has {self.params.n_features}"
            )
        return FactorizedDesign(data, [], [])

    def log_gaussians(self, data: np.ndarray) -> np.ndarray:
        """``(n, K)`` component log-densities for dense rows."""
        return component_log_densities(
            self._wide(data), self.params, self._precisions
        )

    def responsibilities(self, data: np.ndarray) -> np.ndarray:
        """Posterior cluster memberships ``γ`` (Eq. 2)."""
        return posteriors(self._wide(data), self.params, self._precisions)[0]

    def predict(self, data: np.ndarray) -> np.ndarray:
        """Hard cluster assignments (argmax responsibility)."""
        return self.responsibilities(data).argmax(axis=1)

    def score_samples(self, data: np.ndarray) -> np.ndarray:
        """Per-tuple log-likelihood ``log p(x)``."""
        return posteriors(self._wide(data), self.params, self._precisions)[1]

    def score(self, data: np.ndarray) -> float:
        """Mean log-likelihood over the rows of ``data``."""
        return float(self.score_samples(data).mean())

    def sample(
        self, n: int, *, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Draw ``n`` points from the mixture."""
        if rng is None:
            rng = np.random.default_rng()
        counts = rng.multinomial(n, self.params.weights)
        draws = []
        for j, count in enumerate(counts):
            if count:
                draws.append(
                    rng.multivariate_normal(
                        self.params.means[j],
                        self.params.covariances[j],
                        size=count,
                    )
                )
        data = np.vstack(draws) if draws else np.empty((0, self.params.n_features))
        return data[rng.permutation(data.shape[0])]
