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

Two statistic objects live here:

* :class:`LinearSuffStats` — the ridge normal equations
  ``(XᵀX, Xᵀy, Σx, Σy, n)`` plus the per-RID aggregates (group counts,
  γ-free fact sums, FK co-occurrence counts) needed to replay a
  dimension-row delta exactly.  ``solve()`` reproduces
  :func:`repro.linear.models.fit_ridge`'s closed form to float
  round-off (the parity suite pins the tolerance).
* :class:`GMMSuffStats` — the mixture's M-step statistics
  ``(N_k, Σγx, Σγxxᵀ)`` plus per-RID responsibility masses, refreshed
  under *frozen responsibilities*: a dimension delta moves the
  x-dependent blocks with γ held fixed, then one M-step re-solve yields
  updated parameters.  This is a first-order approximation (γ would
  shift under a full refit), so the maintainer tracks accumulated
  drift and falls back to a deterministic cold refit past a bound.

Appended fact rows fold into both exactly/via one E-step respectively —
the mini-batch path of the tentpole.  All per-batch grouped reductions
run through the access path's :class:`~repro.fx.dedup.DedupPlan`, the
same dedup machinery training and serving share — two dimensions'
co-occurrence included: a batch's RID *pairs* are one more FK column
(:class:`PairTable`), so a dimension pair retains what the fact rows
reference (``≤ n`` pairs), never ``m_i · m_j`` cells.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from repro.linalg.design import FactorizedDesign
from repro.linalg.groupsum import KeyIndex
from repro.linalg.outer import factorized_count_outer, factorized_weighted_sum
from repro.linear.models import LinearModel
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


@dataclass
class LinearSuffStats:
    """Sufficient statistics of the factorized ridge fit.

    ``dim_index[i]`` (the relation's key index at build time, so heap
    order) fixes the index space of every per-RID array for dimension
    ``i``: row ``r`` of ``dim_features[i]`` is the feature vector of the
    key it places at ``r``.  ``pairs[(i, j)]`` (only ``i < j`` stored)
    counts fact rows referencing RID pair ``(r, s)`` — the coupling
    weight of the off-diagonal Gram block.
    """

    spec: JoinSpec
    alpha: float
    layout: object
    gram: np.ndarray
    cross: np.ndarray
    feature_sum: np.ndarray
    target_sum: float
    n: int
    dim_index: list[KeyIndex]
    dim_features: list[np.ndarray]
    group_count: list[np.ndarray]
    group_fact_sum: list[np.ndarray]
    group_target_sum: list[np.ndarray]
    pairs: dict[tuple[int, int], PairTable]
    resolved: object
    #: accumulated relative Frobenius movement of the Gram matrix —
    #: exact deltas do not drift, but the number still quantifies how
    #: far the statistics have moved since the last full build.
    drift: float = 0.0
    deltas_applied: int = 0

    @classmethod
    def build(
        cls,
        db: Database,
        spec: JoinSpec,
        *,
        alpha: float = 1e-3,
        block_pages: int = DEFAULT_BLOCK_PAGES,
    ) -> "LinearSuffStats":
        """One factorized pass accumulating the full statistics."""
        if alpha < 0:
            raise ModelError(f"alpha must be non-negative, got {alpha}")
        with open_access(db, spec, FACTORIZED, block_pages) as access:
            if not access.has_target:
                raise ModelError("ridge statistics require a TARGET column")
            resolved = access.resolved
            layout = resolved.layout
            d = layout.total
            dim_index = [d.relation.key_index() for d in resolved.dimensions]
            stats = cls(
                spec=spec, alpha=alpha, layout=layout,
                gram=np.zeros((d, d)), cross=np.zeros(d),
                feature_sum=np.zeros(d), target_sum=0.0, n=0,
                dim_index=dim_index,
                dim_features=[
                    dim.relation.features().astype(np.float64)
                    for dim in resolved.dimensions
                ],
                group_count=[np.zeros(len(k)) for k in dim_index],
                group_fact_sum=[
                    np.zeros((len(k), layout.sizes[0])) for k in dim_index
                ],
                group_target_sum=[np.zeros(len(k)) for k in dim_index],
                pairs=_pair_tables(resolved.num_dimensions, 1),
                resolved=resolved,
            )
            for batch in access.batches():
                stats._fold(
                    batch.design, _retained_rows(batch.plan, dim_index),
                    batch.targets,
                )
        if stats.n == 0:
            raise ModelError("the join produced no tuples")
        return stats

    def _fold(self, design: FactorizedDesign, rids, targets) -> None:
        """Add one factorized batch into every statistic — the sums
        :func:`~repro.linear.models.fit_ridge` accumulates, plus the
        per-RID aggregates (``rids[i]`` places the design's distinct
        tuples of dimension ``i`` in the retained index space)."""
        ones = np.ones(design.n)
        self.gram += factorized_count_outer(design)
        self.cross += factorized_weighted_sum(design, targets)
        self.feature_sum += factorized_weighted_sum(design, ones)
        self.target_sum += float(targets.sum())
        self.n += design.n
        for i, (at, group) in enumerate(zip(rids, design.groups)):
            self.group_count[i][at] += group.sum_weights(ones)
            self.group_fact_sum[i][at] += group.sum_rows(design.fact_block)
            self.group_target_sum[i][at] += group.sum_weights(targets)
        rows = [at[group.codes] for at, group in zip(rids, design.groups)]
        for (i, j), table in self.pairs.items():
            table.add(rows[i], rows[j], ones)

    @property
    def nbytes(self) -> int:
        """Bytes retained: global sums, per-RID arrays, pair tables."""
        return sum(held.nbytes for held in [
            self.gram, self.cross, self.feature_sum, *self.dim_index,
            *self.dim_features, *self.group_count, *self.group_fact_sum,
            *self.group_target_sum, *self.pairs.values(),
        ])

    # -- deltas --------------------------------------------------------------

    def apply_dimension_update(
        self, relation_name: str, rids: np.ndarray, new_features: np.ndarray
    ) -> float:
        """Rank-``k`` statistic delta for updated dimension rows.

        ``new_features`` are the replacement *feature* rows for the
        given primary keys.  Every Gram/cross/sum block touching the
        dimension moves by a closed-form amount computed from the
        retained per-RID aggregates; nothing is re-scanned.  Returns
        the relative Frobenius movement of the Gram matrix (also
        accumulated on :attr:`drift`).
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
        counts = self.group_count[i][g]
        gram_before = float(np.linalg.norm(self.gram))
        # fact × dimension block and its transpose
        block = self.group_fact_sum[i][g].T @ delta
        self.gram[s0, si] += block
        self.gram[si, s0] += block.T
        # dimension × itself
        self.gram[si, si] += (
            (new * counts[:, None]).T @ new
            - (old * counts[:, None]).T @ old
        )
        # dimension × every other dimension, through co-occurrence
        for j in range(len(self.dim_index)):
            if j == i:
                continue
            sj = self.layout.slice_of(j + 1)
            coef = self.pairs[min(i, j), max(i, j)].coupled(
                int(i > j), g, self.dim_features[j]
            )
            block = delta.T @ coef[:, 0]
            self.gram[si, sj] += block
            self.gram[sj, si] += block.T
        self.cross[si] += delta.T @ self.group_target_sum[i][g]
        self.feature_sum[si] += counts @ delta
        self.dim_features[i][g] = new
        moved = _relative_norm(
            float(np.linalg.norm(delta) * max(1.0, counts.max(initial=0.0))),
            gram_before,
        )
        self.drift += moved
        self.deltas_applied += 1
        return moved

    def fold_appended_dimension(
        self, relation_name: str, rids: np.ndarray, new_features: np.ndarray
    ) -> None:
        """Extend the per-RID index space with brand-new dimension rows.

        New rows carry no fact references yet, so the global statistics
        and pair tables are untouched; only the per-RID arrays grow.
        """
        i = _dimension_index(self.resolved, relation_name)
        rids = np.asarray(rids).ravel().astype(np.int64)
        new = np.atleast_2d(np.asarray(new_features, dtype=np.float64))
        grown = rids.size
        self.dim_index[i] = self.dim_index[i].extended(rids)
        self.dim_features[i] = np.vstack([self.dim_features[i], new])
        self.group_count[i] = np.concatenate(
            [self.group_count[i], np.zeros(grown)]
        )
        self.group_fact_sum[i] = np.vstack(
            [self.group_fact_sum[i], np.zeros((grown, self.layout.sizes[0]))]
        )
        self.group_target_sum[i] = np.concatenate(
            [self.group_target_sum[i], np.zeros(grown)]
        )

    def fold_appended_facts(
        self,
        fact_features: np.ndarray,
        fk_columns: list[np.ndarray],
        targets: np.ndarray,
    ) -> None:
        """Fold appended fact rows in exactly (mini-batch accumulation):
        they are one more factorized batch, over the retained dimension
        snapshots at distinct-RID cardinality."""
        fact = np.atleast_2d(np.asarray(fact_features, dtype=np.float64))
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if targets.size != fact.shape[0]:
            raise ModelError(
                f"{fact.shape[0]} appended rows but {targets.size} targets"
            )
        if fact.shape[0]:
            self._fold(
                *_appended_batch(
                    fact, fk_columns, self.dim_index, self.dim_features
                ),
                targets,
            )
        self.deltas_applied += 1

    # -- solve ---------------------------------------------------------------

    def solve(self) -> LinearModel:
        """The closed-form ridge solve over the maintained statistics —
        the same centering arithmetic as :func:`fit_ridge`."""
        if self.n == 0:
            raise ModelError("no tuples in the maintained statistics")
        d = self.layout.total
        mean = self.feature_sum / self.n
        target_mean = self.target_sum / self.n
        centered_gram = self.gram - self.n * np.outer(mean, mean)
        centered_cross = self.cross - self.n * mean * target_mean
        weights = np.linalg.solve(
            centered_gram + self.alpha * np.eye(d), centered_cross
        )
        intercept = target_mean - float(mean @ weights)
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


@dataclass
class GMMSuffStats:
    """Frozen-responsibility M-step statistics of a fitted mixture.

    Built from one factorized E-pass at the fitted parameters; a
    dimension-row delta moves the x-dependent statistic blocks with the
    responsibilities γ held fixed, then :meth:`solve` runs one M-step.
    Appended fact rows fold in through a fresh E-step at the current
    parameters (mini-batch EM).  Both paths are approximations of a
    full refit — :attr:`drift` accumulates the statistics' relative
    movement so a maintainer can force a cold refit past a bound.
    """

    spec: JoinSpec
    config: EMConfig
    params: GMMParams
    layout: object
    counts: np.ndarray            # (K,) responsibility masses N_k
    comp_sum: np.ndarray          # (K, d) Σ γ x
    comp_outer: np.ndarray        # (K, d, d) Σ γ x xᵀ
    n: int
    dim_index: list[KeyIndex]
    dim_features: list[np.ndarray]
    mass: list[np.ndarray]        # per dim: (m_i, K) Σ γ over referencing rows
    fact_mass: list[np.ndarray]   # per dim: (K, m_i, d_S) γ-weighted fact sums
    pairs: dict[tuple[int, int], PairTable]  # γ co-occurrence, width K
    resolved: object
    drift: float = 0.0
    deltas_applied: int = 0

    @classmethod
    def build(
        cls,
        db: Database,
        spec: JoinSpec,
        params: GMMParams,
        *,
        config: EMConfig | None = None,
        block_pages: int = DEFAULT_BLOCK_PAGES,
    ) -> "GMMSuffStats":
        """One factorized E-pass at ``params`` retaining per-RID masses."""
        config = config or EMConfig(n_components=params.weights.size)
        with open_access(db, spec, FACTORIZED, block_pages) as access:
            resolved = access.resolved
            layout = resolved.layout
            d = layout.total
            k = params.weights.size
            dim_index = [d.relation.key_index() for d in resolved.dimensions]
            stats = cls(
                spec=spec, config=config, params=params, layout=layout,
                counts=np.zeros(k), comp_sum=np.zeros((k, d)),
                comp_outer=np.zeros((k, d, d)), n=0, dim_index=dim_index,
                dim_features=[
                    dim.relation.features().astype(np.float64)
                    for dim in resolved.dimensions
                ],
                mass=[np.zeros((len(keys), k)) for keys in dim_index],
                fact_mass=[
                    np.zeros((k, len(keys), layout.sizes[0]))
                    for keys in dim_index
                ],
                pairs=_pair_tables(resolved.num_dimensions, k),
                resolved=resolved,
            )
            precisions = ComponentPrecisions(
                params.covariances, config.reg_covar
            )
            for batch in access.batches():
                stats._fold(
                    batch.design, _retained_rows(batch.plan, dim_index),
                    precisions,
                )
        if stats.n == 0:
            raise ModelError("the join produced no tuples")
        return stats

    def _fold(
        self, design: FactorizedDesign, rids: list[np.ndarray], precisions
    ) -> np.ndarray:
        """One E-pass over a factorized batch at the current parameters
        — the training kernels on the training design — added into
        every statistic.  ``rids[i]`` places the design's distinct
        tuples of dimension ``i`` in the retained index space.  Returns
        the batch's responsibility masses."""
        gamma, _ = posteriors(design, self.params, precisions)
        k, d_s = gamma.shape[1], design.fact_block.shape[1]
        batch_counts = gamma.sum(axis=0)
        self.counts += batch_counts
        self.comp_sum += mu_sums(design, gamma)
        # zero means: the raw second moments Σ γ x xᵀ
        self.comp_outer += sigma_sums(design, gamma, np.zeros((k, design.d)))
        self.n += design.n
        weighted = (
            gamma[:, :, None] * design.fact_block[:, None, :]
        ).reshape(design.n, k * d_s)
        for i, (at, group) in enumerate(zip(rids, design.groups)):
            self.mass[i][at] += group.sum_rows(gamma)
            self.fact_mass[i][:, at] += (
                group.sum_rows(weighted).reshape(-1, k, d_s).transpose(1, 0, 2)
            )
        rows = [at[group.codes] for at, group in zip(rids, design.groups)]
        for (i, j), table in self.pairs.items():
            table.add(rows[i], rows[j], gamma)
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
        """Frozen-γ rank-``k`` delta to the M-step statistics.

        Responsibility masses (``counts``, ``mass``, ``fact_mass``,
        ``pairs``) are x-independent under frozen γ and stay put;
        only the sums/outers that mention the updated dimension's
        feature values move.  Returns the statistics' relative movement
        (accumulated on :attr:`drift` — the maintainer's refit signal,
        since γ itself would shift under a true refit).
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
        # dimension × other dimensions through γ co-occurrence
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
    ) -> float:
        """One E-step over appended fact rows at the current parameters,
        folded into every statistic (mini-batch EM): the rows are a
        factorized batch over the retained dimension snapshots."""
        fact = np.atleast_2d(np.asarray(fact_features, dtype=np.float64))
        if fact.shape[0] == 0:
            return 0.0
        counts_before = float(np.linalg.norm(self.counts))
        delta_counts = self._fold(
            *_appended_batch(
                fact, fk_columns, self.dim_index, self.dim_features
            ),
            ComponentPrecisions(
                self.params.covariances, self.config.reg_covar
            ),
        )
        moved = _relative_norm(
            float(np.linalg.norm(delta_counts)), counts_before
        )
        self.drift += moved
        self.deltas_applied += 1
        return moved

    def fold_appended_dimension(
        self, relation_name: str, rids: np.ndarray, new_features: np.ndarray
    ) -> None:
        """Grow the per-RID index space with new dimension rows (exact —
        nothing references them yet, so no pair table moves)."""
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

    # -- solve ---------------------------------------------------------------

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
