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
about a fixed centre and the per-RID aggregates, folds one walk per
batch and applies every delta; a kind contributes only its walk and its
solve, both the training ones:

* :class:`LinearSuffStats` — ridge, the ``K = 1``, γ ≡ 1 case with the
  target as the first fact column: every delta is exact, and walk and
  solve are :func:`~repro.linear.models.fit_ridge`'s.
* :class:`GMMSuffStats` — γ at the fitted parameters, held *frozen*
  under a dimension delta; the walk is ``run_em``'s and the solve its
  M-step, a first-order approximation of a refit (γ would shift), so
  the maintainer tracks drift and refits past a bound.

A solve whose centring cancels (rows moved far from the centre) returns
``None``, and the maintainer refits.  A batch's RID *pairs* go through
the access path's :class:`~repro.fx.dedup.DedupPlan` like one more FK
column (:class:`PairTable`), so a dimension pair retains what the fact
rows reference (``≤ n`` pairs), never ``m_i · m_j`` cells.
"""

from __future__ import annotations

import numpy as np

from repro.core.strategies import FACTORIZED
from repro.core.training import open_access
from repro.errors import ModelError
from repro.fx.dedup import DedupPlan
from repro.gmm.base import EMConfig, m_step
from repro.gmm.model import ComponentPrecisions, GMMParams, em_sums
from repro.join.bnl import DEFAULT_BLOCK_PAGES
from repro.join.spec import JoinSpec
from repro.linalg.blocks import BlockLayout
from repro.linalg.design import FactorizedDesign
from repro.linalg.groupsum import KeyIndex
from repro.linalg.outer import finish_outer, finish_sum
from repro.linear.models import LinearModel, ridge_solution, ridge_sums
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

    def coupled(self, side: int, rows: np.ndarray, features, centre) -> np.ndarray:
        """``out[u, k] = Σ_s mass[(rows[u], s), k] · (features[s] −
        centre[k])`` over the partners ``s`` the fact rows pair
        ``rows[u]`` with, shape ``(len(rows), width, d)``.  ``rows``
        index the left dimension (``side`` 0) or the right one; either
        way a binary search per row finds its pairs, nothing is
        scanned."""
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
            self.mass[hits][:, :, None] * (features[partners][:, None, :] - centre),
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

    Per weight column ``k``: the mass ``N_k``, ``Σ w x`` and the second
    moments ``Σ w (x−c_k)(x−c_k)ᵀ`` about :attr:`centre` (the ``(q+1)²``
    block grid), each batch's unfinished tile sums finished by the
    training kernels.  A kind supplies only its walk (:meth:`_walk`)
    and :meth:`solve`.

    ``dim_index[i]`` (the relation's key index at build time, so heap
    order) fixes the index space of every per-RID array for dimension
    ``i``: row ``r`` of ``dim_features[i]`` is the feature vector of
    the key it places at ``r``; ``mass[i]`` and ``fact_mass[i]`` hold
    the referencing fact rows' ``Σ w`` and ``Σ w (x_S − c_S)``, read off
    the walk's grouped sums.  ``pairs[(i, j)]`` (only ``i < j`` stored)
    holds the weight mass of the fact rows referencing RID pair
    ``(r, s)`` — the coupling of the off-diagonal blocks.
    :attr:`drift` accumulates the moments' relative movement since the
    build, so a maintainer can force a cold refit past a bound.
    """

    #: fact columns the walk puts before ``x_S``
    lead = 0

    def __init__(self, spec: JoinSpec, resolved, width: int, centre) -> None:
        sizes = resolved.layout.sizes
        self.spec = spec
        self.resolved = resolved
        self.layout = BlockLayout((sizes[0] + self.lead, *sizes[1:]))
        d, d_s = self.layout.total, self.layout.sizes[0]
        self.centre = centre                       # (K, d), or set by _walk
        self.counts = np.zeros(width)              # (K,) weight masses N_k
        self.comp_sum = np.zeros((width, d))       # (K, d) Σ w x
        self.comp_outer = np.zeros((width, d, d))  # (K, d, d) Σ w (x−c)(x−c)ᵀ
        self.n = 0
        self.dim_index: list[KeyIndex] = [
            dim.relation.key_index() for dim in resolved.dimensions
        ]
        self.dim_features = [
            dim.relation.features().astype(np.float64)
            for dim in resolved.dimensions
        ]
        # per dim: (m_i, K) Σ w over the referencing fact rows, and
        # (K, m_i, d_S) their w-weighted fact columns less c_S
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
                stats._fold(
                    _retained_rows(batch.plan, stats.dim_index),
                    *stats._walk(batch.design, batch.targets),
                )
        if stats.n == 0:
            raise ModelError("the join produced no tuples")
        return stats

    def _walk(self, design: FactorizedDesign, targets):
        """The batch's one walk about :attr:`centre`: ``(design as
        folded, Σ w per column, the unfinished tile sums, the (n, K)
        weights)`` — the weights needed only where ``q > 1``."""
        raise NotImplementedError

    def _fold(self, rids: list[np.ndarray], design, mass, sums, weights) -> np.ndarray:
        """Add one walked batch into every statistic.  ``rids[i]``
        places the design's distinct tuples of dimension ``i`` in the
        retained index space.  Returns the batch's weight masses."""
        d_s = design.fact_block.shape[1]
        self.counts += mass
        self.comp_sum += finish_sum(design, sums)
        self.comp_outer += finish_outer(design, self.centre, sums)
        self.n += design.n
        for i, (at, group, grouped) in enumerate(zip(rids, design.groups, sums[1:])):
            at = at[group.present]
            self.mass[i][at] += grouped[:, 0].T
            self.fact_mass[i][:, at] += grouped[:, 1 : 1 + d_s].transpose(0, 2, 1)
        rows = [at[group.codes] for at, group in zip(rids, design.groups)]
        for (i, j), table in self.pairs.items():
            table.add(rows[i], rows[j], weights)
        return mass

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
        the retained per-RID aggregates, every product about the
        centre; nothing is re-scanned.  Returns the relative movement
        of ``comp_sum`` (accumulated on :attr:`drift`).
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
        centre = self.centre[None, :, si]              # (1, K, d_Ri)
        new_c, old_c = new[:, None] - centre, old[:, None] - centre
        self.comp_outer[:, si, si] += (
            np.einsum("uk,uka,ukb->kab", mass_u, new_c, new_c)
            - np.einsum("uk,uka,ukb->kab", mass_u, old_c, old_c)
        )
        # dimension × other dimensions through the pair mass
        for j in range(len(self.dim_index)):
            if j == i:
                continue
            sj = self.layout.slice_of(j + 1)
            coef = self.pairs[min(i, j), max(i, j)].coupled(
                int(i > j), g, self.dim_features[j], self.centre[:, sj]
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
        counts_before = float(np.linalg.norm(self.counts))
        moved = _relative_norm(
            float(np.linalg.norm(self._fold(rids, *self._walk(design, targets)))),
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
    the design with the target as its first fact column, centred on the
    first batch's means (``comp_outer[0]`` is ``[y | X]``'s outer sum
    about them).  Every delta is exact, and :meth:`solve` reproduces
    :func:`~repro.linear.models.fit_ridge` — bit-exactly straight after
    a build, since both fold :func:`~repro.linear.models.ridge_sums`.
    """

    lead = 1                            # the target column

    def __init__(self, spec: JoinSpec, resolved, *, alpha: float = 1e-3):
        if alpha < 0:
            raise ModelError(f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha
        super().__init__(spec, resolved, 1, None)

    def _walk(self, design: FactorizedDesign, targets):
        """Unit weights over ``[y | x_S]``, about the first batch's means."""
        if targets is None:
            raise ModelError("ridge statistics require a TARGET column")
        design, self.centre, sums = ridge_sums(design, targets, self.centre)
        return design, np.array([float(design.n)]), sums, np.ones((design.n, 1))

    def solve(self) -> LinearModel | None:
        """The closed-form ridge solve over the maintained statistics —
        :func:`fit_ridge`'s arithmetic on the same moments; ``None``
        when the rows moved so far from the centre that its correction
        cancels."""
        solution = ridge_solution(
            self.n, self.comp_sum[0], self.comp_outer[0], self.alpha, self.centre[0]
        )
        if solution is None:
            return None
        weights, intercept = solution
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
    walk is the training step's at :attr:`params`, about the build's
    means, so :meth:`solve` straight after a build is one ``run_em``
    iteration.  A dimension delta holds γ fixed and appended fact rows
    fold in through a fresh E-step (mini-batch EM) — approximations of
    a refit, which is what :attr:`drift` bounds.
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
        super().__init__(spec, resolved, params.weights.size, params.means)

    def _walk(self, design: FactorizedDesign, targets):
        """:func:`~repro.gmm.model.em_sums` at the current parameters
        (no target)."""
        precisions = ComponentPrecisions(
            self.params.covariances, self.config.reg_covar
        )
        mass, _, sums, gamma = em_sums(design, self.params, precisions, self.centre)
        return design, mass, sums, gamma

    def solve(self) -> GMMParams | None:
        """One M-step over the maintained statistics
        (:func:`~repro.gmm.base.m_step`, the training M-step); the
        result becomes the statistics' current :attr:`params`.  ``None``
        when the rows moved so far from the centre that its correction
        cancels."""
        params = m_step(
            self.counts, self.comp_sum, self.comp_outer, self.centre, self.n
        )
        if params is not None:
            self.params = params
        return params
