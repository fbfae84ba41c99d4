"""Delta-maintainable sufficient statistics over the normalized tables.

The paper's factorized construction already decomposes every second-
order quantity along relation boundaries: the Gram matrix accumulates
as a ``(q+1)²`` block grid (Eq. 23–24) where each block touching
dimension ``R_i`` is a sum over distinct dimension tuples weighted by
per-RID fact aggregates.  That decomposition is exactly what makes the
fit *maintainable*: when one dimension row changes, only the blocks it
participates in move, by a rank-``k`` amount expressible from retained
per-RID groupsums — no rescan of the fact relation (Civek et al.'s
online second-order regression is the reference, see PAPERS.md).

One statistics object, :class:`SuffStats`, holds the weighted moments
``(N_k, Σwx, Σwxxᵀ)`` and the per-RID aggregates, and applies every
delta; a kind contributes only its weights and its solve:

* :class:`LinearSuffStats` — ridge is the ``K = 1``, γ ≡ 1 case with
  the target carried as the first fact column, so the moments hold the
  normal equations ``(XᵀX, Xᵀy, Σx, Σy, n)`` and every delta is exact.
  ``solve()`` is :func:`repro.linear.models.fit_ridge`'s closed form.
* :class:`GMMSuffStats` — the weights are the responsibilities γ at
  the fitted parameters, held *frozen* under a dimension delta; one
  M-step re-solve yields updated parameters.  This is a first-order
  approximation (γ would shift under a full refit), so the maintainer
  tracks accumulated drift and falls back to a deterministic cold
  refit past a bound.

Appended fact rows fold in as one more batch under the kind's weights
(exact accumulation for ridge, one E-step for the mixture).  All
per-batch grouped reductions run through the access path's
:class:`~repro.fx.dedup.DedupPlan`, the same dedup machinery training
and serving share — two dimensions' co-occurrence included: a batch's
RID *pairs* are one more FK column (:class:`PairTable`), so a
dimension pair retains what the fact rows reference (``≤ n`` pairs),
never ``m_i · m_j`` cells.
"""

from __future__ import annotations

import numpy as np

from repro.core.strategies import FACTORIZED
from repro.core.training import open_access
from repro.errors import ModelError
from repro.fx.dedup import DedupPlan
from repro.gmm.base import EMConfig
from repro.gmm.engines import mu_sums, sigma_sums
from repro.gmm.model import ComponentPrecisions, GMMParams, posteriors
from repro.join.bnl import DEFAULT_BLOCK_PAGES
from repro.join.spec import JoinSpec
from repro.linalg.blocks import BlockLayout
from repro.linalg.design import FactorizedDesign
from repro.linalg.groupsum import KeyIndex
from repro.linear.models import LinearModel, ridge_solution, with_target
from repro.storage.catalog import Database

_EPS = 1e-12


def _dimension_index(resolved, relation_name: str) -> int:
    for index, dim in enumerate(resolved.dimensions):
        if dim.relation.name == relation_name:
            return index
    raise ModelError(
        f"relation {relation_name!r} is not a dimension of the join "
        f"(have {[d.relation.name for d in resolved.dimensions]})"
    )


def _relative_norm(delta: float, reference: float) -> float:
    return delta / (reference + _EPS)


def _retained_rows(plan: DedupPlan, dim_index) -> list[np.ndarray]:
    """Where a batch's distinct tuples sit in the retained per-RID
    index space, per dimension."""
    return [
        index.codes(dim.unique) for dim, index in zip(plan.dims, dim_index)
    ]


def _appended_batch(fact, fk_columns, dim_index, dim_features):
    """Appended fact rows as the factorized batch they are: the design
    over the retained dimension snapshots at the rows' distinct RIDs,
    and :func:`_retained_rows` of those RIDs."""
    if len(fk_columns) != len(dim_index):
        raise ModelError(
            f"{len(fk_columns)} FK columns for a "
            f"{len(dim_index)}-dimension join"
        )
    plan = DedupPlan.for_batch(fk_columns)
    rids = _retained_rows(plan, dim_index)
    blocks = [features[at] for features, at in zip(dim_features, rids)]
    return FactorizedDesign.from_plan(fact, blocks, plan), rids


def _reduced(keys: np.ndarray, mass: np.ndarray):
    """Sorted distinct ``keys`` and the ``mass`` rows summed per key —
    the pair column goes through the dedup like any FK column."""
    dedup = DedupPlan.for_batch([keys]).dims[0]
    return dedup.unique, dedup.group_index().sum_rows(mass)


_ROW_BITS = 32
_ROW_MASK = (1 << _ROW_BITS) - 1


class PairTable:
    """Fact-row mass per *referenced* RID pair of two dimensions.

    Sorted int64 ``keys`` (``row_i << 32 | row_j`` over the two
    retained index spaces, so appended dimension rows need no
    re-keying) beside a ``(pairs, width)`` ``mass`` array: ``width`` is
    ``K`` for the mixture's γ co-occurrence and 1 for ridge's counts.
    Batches are reduced on arrival and merged before the first read.
    """

    def __init__(self, width: int) -> None:
        self.keys = np.empty(0, dtype=np.int64)
        self.mass = np.empty((0, width))
        self._unmerged: list[tuple[np.ndarray, np.ndarray]] = []
        #: (keys with their halves swapped, sorted; that sort) — built
        #: by the first read from the right, dropped by ``add``.
        self._by_right: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def nbytes(self) -> int:
        held = [(self.keys, self.mass), self._by_right or (), *self._unmerged]
        return sum(array.nbytes for arrays in held for array in arrays)

    def add(self, left: np.ndarray, right: np.ndarray, mass) -> None:
        """Fold one batch: fact row ``t`` references the pair
        ``(left[t], right[t])`` with weight ``mass[t]``."""
        if left.size == 0:
            return
        if max(left.max(), right.max()) > _ROW_MASK >> 1:
            raise ModelError(
                "a dimension reached 2**31 rows; pair keys would collide"
            )
        self._unmerged.append(_reduced(left << _ROW_BITS | right, mass))
        self._by_right = None

    def coupled(self, side: int, rows: np.ndarray, features) -> np.ndarray:
        """``out[u] = Σ_s mass[(rows[u], s)] ⊗ features[s]`` over the
        partners ``s`` the fact rows pair ``rows[u]`` with, shape
        ``(len(rows), width, d)``.  ``rows`` index the left dimension
        (``side`` 0) or the right one; either way a binary search per
        row finds its pairs, nothing is scanned."""
        if self._unmerged:
            keys, mass = zip((self.keys, self.mass), *self._unmerged)
            self.keys, self.mass = _reduced(
                np.concatenate(keys), np.concatenate(mass)
            )
            self._unmerged = []
        keys, order = self.keys, None
        if side == 1:
            if self._by_right is None:
                swapped = (keys & _ROW_MASK) << _ROW_BITS | keys >> _ROW_BITS
                order = np.argsort(swapped)
                self._by_right = (swapped[order], order)
            keys, order = self._by_right
        # A row's pairs are the one run of keys that lead with it.
        first = np.searchsorted(keys, rows << _ROW_BITS)
        counts = np.searchsorted(
            keys, rows << _ROW_BITS | _ROW_MASK, side="right"
        ) - first
        starts = np.cumsum(counts) - counts
        hits = np.arange(counts.sum()) + np.repeat(first - starts, counts)
        partners = keys[hits] & _ROW_MASK
        if order is not None:
            hits = order[hits]
        out = np.zeros((rows.size, self.mass.shape[1], features.shape[1]))
        referenced = counts > 0         # an empty run has nothing to reduce
        out[referenced] = np.add.reduceat(
            self.mass[hits][:, :, None] * features[partners][:, None, :],
            starts[referenced], axis=0,
        )
        return out


def _pair_tables(q: int, width: int) -> dict[tuple[int, int], PairTable]:
    return {
        (i, j): PairTable(width) for i in range(q) for j in range(i + 1, q)
    }


class SuffStats:
    """The maintained moments of one factorized fit, and the per-RID
    aggregates that replay a dimension-row delta without a rescan.

    Per weight column ``k``: the mass ``N_k``, ``Σ w x`` and the raw
    second moments ``Σ w x xᵀ`` (the ``(q+1)²`` block grid).  A kind
    supplies only its weight source (:meth:`_weighted`: the batch's
    design as folded and its ``(n, K)`` weights) and :meth:`solve`.

    ``dim_index[i]`` (the relation's key index at build time, so heap
    order) fixes the index space of every per-RID array for dimension
    ``i``: row ``r`` of ``dim_features[i]`` is the feature vector of
    the key it places at ``r``.  ``pairs[(i, j)]`` (only ``i < j``
    stored) holds the weight mass of the fact rows referencing RID pair
    ``(r, s)`` — the coupling of the off-diagonal blocks.
    :attr:`drift` accumulates the moments' relative movement since the
    build, so a maintainer can force a cold refit past a bound.
    """

    #: fact columns the weight source puts before ``x_S``
    lead = 0

    def __init__(self, spec: JoinSpec, resolved, width: int) -> None:
        sizes = resolved.layout.sizes
        self.spec = spec
        self.resolved = resolved
        self.layout = BlockLayout((sizes[0] + self.lead, *sizes[1:]))
        d, d_s = self.layout.total, self.layout.sizes[0]
        self.counts = np.zeros(width)              # (K,) weight masses N_k
        self.comp_sum = np.zeros((width, d))       # (K, d) Σ w x
        self.comp_outer = np.zeros((width, d, d))  # (K, d, d) Σ w x xᵀ
        self.n = 0
        self.dim_index: list[KeyIndex] = [
            dim.relation.key_index() for dim in resolved.dimensions
        ]
        self.dim_features = [
            dim.relation.features().astype(np.float64)
            for dim in resolved.dimensions
        ]
        # per dim: (m_i, K) Σ w over the referencing fact rows, and
        # (K, m_i, d_S) their w-weighted fact columns
        self.mass = [np.zeros((len(keys), width)) for keys in self.dim_index]
        self.fact_mass = [
            np.zeros((width, len(keys), d_s)) for keys in self.dim_index
        ]
        self.pairs = _pair_tables(resolved.num_dimensions, width)
        self.drift = 0.0
        self.deltas_applied = 0

    @classmethod
    def build(
        cls,
        db: Database,
        spec: JoinSpec,
        *args,
        block_pages: int = DEFAULT_BLOCK_PAGES,
        **kwargs,
    ) -> "SuffStats":
        """One factorized pass accumulating every statistic; ``args``
        and ``kwargs`` are the kind's own (the mixture's ``params`` and
        ``config=``, ridge's ``alpha=``)."""
        with open_access(db, spec, FACTORIZED, block_pages) as access:
            stats = cls(spec, access.resolved, *args, **kwargs)
            for batch in access.batches():
                design, weights = stats._weighted(batch.design, batch.targets)
                stats._fold(
                    design, _retained_rows(batch.plan, stats.dim_index),
                    weights,
                )
        if stats.n == 0:
            raise ModelError("the join produced no tuples")
        return stats

    def _weighted(self, design: FactorizedDesign, targets):
        """The batch as folded, and its ``(n, K)`` weights."""
        raise NotImplementedError

    def _fold(
        self, design: FactorizedDesign, rids: list[np.ndarray], weights
    ) -> np.ndarray:
        """Add one factorized batch into every statistic — the training
        kernels on the training design.  ``rids[i]`` places the
        design's distinct tuples of dimension ``i`` in the retained
        index space.  Returns the batch's weight masses."""
        k, d_s = weights.shape[1], design.fact_block.shape[1]
        batch_counts = weights.sum(axis=0)
        self.counts += batch_counts
        self.comp_sum += mu_sums(design, weights)
        # zero means: the raw second moments Σ w x xᵀ
        self.comp_outer += sigma_sums(design, weights, np.zeros((k, design.d)))
        self.n += design.n
        weighted = (
            weights[:, :, None] * design.fact_block[:, None, :]
        ).reshape(design.n, k * d_s)
        for i, (at, group) in enumerate(zip(rids, design.groups)):
            self.mass[i][at] += group.sum_rows(weights)
            self.fact_mass[i][:, at] += (
                group.sum_rows(weighted).reshape(-1, k, d_s).transpose(1, 0, 2)
            )
        rows = [at[group.codes] for at, group in zip(rids, design.groups)]
        for (i, j), table in self.pairs.items():
            table.add(rows[i], rows[j], weights)
        return batch_counts

    @property
    def nbytes(self) -> int:
        """Bytes retained: global sums, per-RID arrays, pair tables."""
        return sum(held.nbytes for held in [
            self.counts, self.comp_sum, self.comp_outer, *self.dim_index,
            *self.dim_features, *self.mass, *self.fact_mass,
            *self.pairs.values(),
        ])

    # -- deltas --------------------------------------------------------------

    def apply_dimension_update(
        self, relation_name: str, rids: np.ndarray, new_features: np.ndarray
    ) -> float:
        """Rank-``k`` delta to the moments for updated dimension rows.

        ``new_features`` are the replacement *feature* rows for the
        given primary keys.  The weight masses (``counts``, ``mass``,
        ``fact_mass``, ``pairs``) stay put — exact for ridge, frozen γ
        for the mixture — and only the sums and outers that mention the
        dimension's feature values move, by closed-form amounts from
        the retained per-RID aggregates; nothing is re-scanned.
        Returns the relative movement of ``comp_sum`` (accumulated on
        :attr:`drift`).
        """
        i = _dimension_index(self.resolved, relation_name)
        rids = np.asarray(rids).ravel().astype(np.int64)
        new = np.atleast_2d(np.asarray(new_features, dtype=np.float64))
        g = self.dim_index[i].codes(rids)
        old = self.dim_features[i][g]
        if new.shape != old.shape:
            raise ModelError(
                f"replacement features for {relation_name!r} must be "
                f"{old.shape}, got {new.shape}"
            )
        delta = new - old
        s0 = self.layout.slice_of(0)
        si = self.layout.slice_of(i + 1)
        mass_u = self.mass[i][g]                       # (|U|, K)
        sum_before = float(np.linalg.norm(self.comp_sum))
        delta_sum = mass_u.T @ delta                   # (K, d_Ri)
        self.comp_sum[:, si] += delta_sum
        # fact × dimension blocks
        fact_u = self.fact_mass[i][:, g, :]            # (K, |U|, d_S)
        block = np.einsum("kua,ub->kab", fact_u, delta)
        self.comp_outer[:, s0, si] += block
        self.comp_outer[:, si, s0] += np.swapaxes(block, 1, 2)
        # dimension × itself
        self.comp_outer[:, si, si] += (
            np.einsum("uk,ua,ub->kab", mass_u, new, new)
            - np.einsum("uk,ua,ub->kab", mass_u, old, old)
        )
        # dimension × other dimensions through the pair mass
        for j in range(len(self.dim_index)):
            if j == i:
                continue
            sj = self.layout.slice_of(j + 1)
            coef = self.pairs[min(i, j), max(i, j)].coupled(
                int(i > j), g, self.dim_features[j]
            )
            block = np.einsum("ua,ukb->kab", delta, coef)
            self.comp_outer[:, si, sj] += block
            self.comp_outer[:, sj, si] += np.swapaxes(block, 1, 2)
        self.dim_features[i][g] = new
        moved = _relative_norm(
            float(np.linalg.norm(delta_sum)), sum_before
        )
        self.drift += moved
        self.deltas_applied += 1
        return moved

    def fold_appended_facts(
        self,
        fact_features: np.ndarray,
        fk_columns: list[np.ndarray],
        targets: np.ndarray | None = None,
    ) -> float:
        """Fold appended fact rows in as one more factorized batch over
        the retained dimension snapshots, under the kind's weights
        (mini-batch accumulation: exact for ridge, one E-step at the
        current parameters for the mixture).  Returns the relative
        movement of ``counts`` (accumulated on :attr:`drift`)."""
        fact = np.atleast_2d(np.asarray(fact_features, dtype=np.float64))
        if fact.shape[0] == 0:
            return 0.0
        design, rids = _appended_batch(
            fact, fk_columns, self.dim_index, self.dim_features
        )
        design, weights = self._weighted(design, targets)
        counts_before = float(np.linalg.norm(self.counts))
        moved = _relative_norm(
            float(np.linalg.norm(self._fold(design, rids, weights))),
            counts_before,
        )
        self.drift += moved
        self.deltas_applied += 1
        return moved

    def fold_appended_dimension(
        self, relation_name: str, rids: np.ndarray, new_features: np.ndarray
    ) -> None:
        """Grow the per-RID index space with new dimension rows (exact —
        nothing references them yet, so no moment or pair table
        moves)."""
        i = _dimension_index(self.resolved, relation_name)
        rids = np.asarray(rids).ravel().astype(np.int64)
        new = np.atleast_2d(np.asarray(new_features, dtype=np.float64))
        grown = rids.size
        k = self.counts.size
        self.dim_index[i] = self.dim_index[i].extended(rids)
        self.dim_features[i] = np.vstack([self.dim_features[i], new])
        self.mass[i] = np.vstack([self.mass[i], np.zeros((grown, k))])
        self.fact_mass[i] = np.concatenate(
            [
                self.fact_mass[i],
                np.zeros((k, grown, self.layout.sizes[0])),
            ],
            axis=1,
        )


class LinearSuffStats(SuffStats):
    """The ridge normal equations: the ``K = 1``, γ ≡ 1 statistics over
    the design with the target as its first fact column.

    ``comp_outer[0]`` is ``[y | X]ᵀ[y | X]`` — row 0 holds ``yᵀy`` and
    ``Xᵀy``, the rest ``XᵀX`` — ``comp_sum[0]`` is ``[Σy | Σx]`` and
    ``counts[0] = n``; per RID, ``mass`` counts the referencing fact
    rows and ``fact_mass`` holds their ``[Σy | Σx_S]``.  Every delta
    is exact, and :meth:`solve` reproduces
    :func:`~repro.linear.models.fit_ridge`'s closed form (bit-exactly
    straight after a build).
    """

    lead = 1                            # the target column

    def __init__(self, spec: JoinSpec, resolved, *, alpha: float = 1e-3):
        if alpha < 0:
            raise ModelError(f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha
        super().__init__(spec, resolved, 1)

    def _weighted(self, design: FactorizedDesign, targets):
        """Unit weights over ``[y | x_S]``."""
        if targets is None:
            raise ModelError("ridge statistics require a TARGET column")
        return with_target(design, targets), np.ones((design.n, 1))

    def solve(self) -> LinearModel:
        """The closed-form ridge solve over the maintained statistics —
        :func:`fit_ridge`'s arithmetic on the same moments."""
        if self.n == 0:
            raise ModelError("no tuples in the maintained statistics")
        weights, intercept = ridge_solution(
            self.n, self.comp_sum[0], self.comp_outer[0], self.alpha
        )
        return LinearModel(
            weights=weights,
            intercept=intercept,
            algorithm="F-Ridge/delta",
            extra={
                "n": self.n,
                "alpha": self.alpha,
                "deltas_applied": self.deltas_applied,
            },
        )


class GMMSuffStats(SuffStats):
    """Frozen-responsibility M-step statistics of a fitted mixture: the
    weights are the responsibilities γ of an E-step at :attr:`params`.

    Built from one factorized E-pass at the fitted parameters; a
    dimension-row delta moves the x-dependent moments with γ held
    fixed, then :meth:`solve` runs one M-step.  Appended fact rows fold
    in through a fresh E-step at the current parameters (mini-batch
    EM).  Both are approximations of a full refit — γ would shift —
    which is what :attr:`drift` bounds.
    """

    def __init__(
        self,
        spec: JoinSpec,
        resolved,
        params: GMMParams,
        *,
        config: EMConfig | None = None,
    ) -> None:
        self.params = params
        self.config = config or EMConfig(n_components=params.weights.size)
        super().__init__(spec, resolved, params.weights.size)

    def _weighted(self, design: FactorizedDesign, targets):
        """γ: one E-step at the current parameters (no target)."""
        precisions = ComponentPrecisions(
            self.params.covariances, self.config.reg_covar
        )
        return design, posteriors(design, self.params, precisions)[0]

    def solve(self) -> GMMParams:
        """One M-step over the maintained statistics.

        Mixing weights follow the responsibility masses (``N_k / n``);
        means and covariances re-solve from the moment sums.  Like the
        training M-step, covariances are stored raw — ``reg_covar``
        enters through the precisions at E/score time, not here.  The
        result becomes the statistics' current :attr:`params`.
        """
        counts = np.maximum(self.counts, _EPS)
        means = self.comp_sum / counts[:, None]
        covariances = (
            self.comp_outer / counts[:, None, None]
            - np.einsum("ka,kb->kab", means, means)
        )
        weights = counts / counts.sum()
        self.params = GMMParams(
            weights=weights, means=means, covariances=covariances
        )
        return self.params
