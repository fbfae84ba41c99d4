"""The one cost model: the paper's published counts, stated once.

Sections V-A/V-B/VI-A of the paper are a single idea — *count the work
at* ``n`` *fact rows versus* ``m`` *distinct dimension rows* — and this
module is its only statement in the package.  Three layers:

* **Unit counts** (:func:`layer1_units`, :func:`outer_units`,
  :func:`mahalanobis_units`): for one join layout ``(d_S, d_R1..d_Rq)``
  the multiplications a *dense row* pays, a *factorized row* pays, and
  each *distinct RID* of dimension ``i`` pays once.  They are written at
  arbitrary arity; a binary join is the same formula at ``q = 1``.
* **:class:`CostModel`** — one concrete class, selected by
  ``(kind, phase)`` from :data:`COUNT_TABLE`, that scales the unit
  counts by the model's per-row multiplier (hidden width ``n_h`` /
  component count ``K``) and by a batch's ``(n, distinct, hit_rates)``.
  :meth:`CostModel.decide` supplies both counts to every chooser, and
  the serving verdict: the runtime's
  :class:`~repro.runtime.planner.BatchPlanner` keeps the
  :class:`PlanDecision` it returns.
* **Paper analyses without a chooser** — the §V-A BlockSize crossover
  and the §VI-A2 "reuse never wins at layer 2" op counts — validated by
  ``tests/fx/test_costs.py`` and the ``bench_io_cost`` /
  ``bench_layer2_ablation`` benches.

The training models also carry the page-level I/O model (Section V-A
and its NN twin): given a :class:`TrainingPageProfile` they answer
:meth:`~CostModel.materialized_io_pages` /
:meth:`~CostModel.streaming_io_pages`.  Training does not compare
counts: :func:`recommend_training_strategy` turns the counts, pages
and join blocks of a whole run into each arm's :data:`FEATURES` and
returns the arm with the fewest *predicted seconds*,
``TRAINING_SECONDS[kind, arm] · features`` — least squares over the
published counts as basis functions, fitted on the reference host by
``tools/calibrate_costs.py``.  A materialized ``T`` larger than the
memory budget is never a candidate.

Ties go to the dense path everywhere: when factorization saves
nothing, the wide batch avoids gather bookkeeping and cache
maintenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.strategies import FACTORIZED, MATERIALIZED, STREAMING
from repro.errors import ModelError

TRAIN, SERVE = "train", "serve"


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ModelError(f"{name} must be positive, got {value}")


def _whole(name: str, value, least: int) -> int:
    """``value`` as an ``int``; integral and ``>= least`` or ModelError."""
    try:
        whole = int(value)
    except (ValueError, OverflowError):     # NaN, ±inf
        whole = None
    if whole is None or value != whole or whole < least:
        raise ModelError(
            f"{name} must be an integer >= {least}, got {value!r}"
        )
    return whole


def saving_rate(dense: float, factorized: float) -> float:
    """Fraction of the dense work the factorized path removes."""
    return (dense - factorized) / dense if dense else 0.0


# -- unit counts: per dense row, per factorized row, per distinct RID ----------


def layer1_units(d_s: int, widths: tuple[int, ...]):
    """First-layer products per hidden unit (Section VI-A1).

    A dense row pays ``d = d_S + Σ d_Ri``; factorized, a row pays
    ``d_S`` and the ``W_Ri x_Ri`` term is computed once per distinct
    RID (``d_Ri``) and reused.  Training and inference share this
    count — a forward pass is a forward pass.
    """
    return d_s + sum(widths), d_s, tuple(widths)


def outer_units(d_s: int, widths: tuple[int, ...]):
    """Σ-update outer-product multiplications per component (Eq. 14).

    A dense row pays ``d²``.  Factorized (Section V-B), each
    dimension's diagonal block ``d_Ri²`` runs once per distinct RID
    with ``PD_R`` and the LR block reused, so a row keeps
    ``d² − Σ d_Ri²`` (``d_S² + 2·d_S·d_R`` for a binary join).
    """
    d = d_s + sum(widths)
    squares = tuple(w * w for w in widths)
    return d * d, d * d - sum(squares), squares


def mahalanobis_units(d_s: int, widths: tuple[int, ...]):
    """Mahalanobis scoring multiplications per component (Eq. 7, 9–12/19).

    A dense row pays ``d² + d`` (``C·I`` plus the row-wise dot).
    Factorized, a row pays the UL block (``d_S² + d_S``), one cross dot
    per dimension (``d_S``) and one coupling dot per dimension pair
    (``d_Rj`` for every earlier dimension ``i < j``); a distinct RID of
    dimension ``i`` pays the cross product (``d_Ri·d_S``), the LR form
    (``d_Ri² + d_Ri``) and the coupling factors against later
    dimensions — skipped entirely for cached partials.

    That is the *upper* triangle of Eq. 19's double sum: pair ``(i, j)``,
    ``i < j``, is charged to a distinct RID of the earlier dimension
    ``i``.  The kernel (:func:`repro.linalg.quadform.quadform_table`,
    which training and the serving partials share) computes the lower
    one — dimension ``j``'s table carries its coefficients against
    everything *left* of it, so the same ``d_Ri·d_Rj`` products are paid
    per distinct RID of ``j``.  Each pair is counted once either way;
    the totals agree whenever the two dimensions contribute equally
    many distinct RIDs, and the published count is kept as published.
    """
    d = d_s + sum(widths)
    row = d_s * d_s + d_s + d_s * len(widths) + sum(
        j * w for j, w in enumerate(widths)
    )
    per_distinct = tuple(
        w * d_s + w * w + w + w * sum(widths[i + 1:])
        for i, w in enumerate(widths)
    )
    return d * d + d, row, per_distinct


#: ``(kind, phase)`` → (unit counts, data passes per training iteration).
#: EM reads the join once per iteration (``gmm.base.run_em``; three
#: times in Algorithm 1); an NN epoch, like a scoring pass, once.
COUNT_TABLE = {
    ("gmm", TRAIN): (outer_units, 1),
    ("nn", TRAIN): (layer1_units, 1),
    ("gmm", SERVE): (mahalanobis_units, 1),
    ("nn", SERVE): (layer1_units, 1),
}


# -- Section V-A: page I/O -----------------------------------------------------


def join_pass_pages(pages_r: int, pages_s: int, block_pages: int) -> int:
    """Pages read by one BNL pass: ``|R| + ceil(|R|/BlockSize)·|S|``."""
    _check_positive(pages_r=pages_r, pages_s=pages_s, block_pages=block_pages)
    return pages_r + math.ceil(pages_r / block_pages) * pages_s


def streaming_wins_block_size(
    pages_r: int, pages_s: int, pages_t: int, iterations: int
) -> float:
    """The BlockSize crossover of Section V-A.

    S-GMM incurs less I/O than M-GMM when ``BlockSize`` exceeds
    ``(p·iter−1)|R||S| / ((p·iter+1)|T| − (p·iter−1)|R|)``, ``p`` from
    :data:`COUNT_TABLE` (the paper's 3); ``inf`` if the denominator ≤ 0.
    """
    _check_positive(
        pages_r=pages_r, pages_s=pages_s, pages_t=pages_t,
        iterations=iterations,
    )
    factor = COUNT_TABLE["gmm", TRAIN][1] * iterations - 1
    denominator = (factor + 2) * pages_t - factor * pages_r
    if denominator <= 0:
        return math.inf
    return factor * pages_r * pages_s / denominator


@dataclass(frozen=True)
class TrainingPageProfile:
    """The page geometry one training run reads and writes.

    ``fact_pages`` / ``dim_pages`` are the base relations' heap sizes;
    ``joined_pages`` is (an estimate of) the materialized join result
    ``|T|``; ``block_pages`` is the BNL outer-block size the run will
    use; ``budget_pages`` is the memory budget (the database's buffer
    pool) a replayed binary pass groups its outer blocks' fact rows in
    (``None``: every pass is Section V-A's).  Built by
    ``algorithm="auto"`` resolution from the resolved join
    (:func:`TrainingPageProfile.for_join`) and consumed by
    :class:`CostModel`'s I/O methods.
    """

    fact_pages: int
    dim_pages: tuple[int, ...]
    joined_pages: int
    block_pages: int = 64
    budget_pages: int | None = None

    def __post_init__(self) -> None:
        if not self.dim_pages:
            raise ModelError("a page profile needs at least one dimension")
        _check_positive(
            fact_pages=self.fact_pages, joined_pages=self.joined_pages,
            block_pages=self.block_pages, dim_pages=min(self.dim_pages),
        )
        if self.budget_pages is not None:
            _check_positive(budget_pages=self.budget_pages)

    @classmethod
    def for_join(cls, db, resolved, *,
                 block_pages: int) -> "TrainingPageProfile":
        """Profile a resolved join over ``db``, estimating ``|T|`` from
        its schema.

        ``resolved`` is a :class:`~repro.join.spec.ResolvedJoin`; the
        joined table's width comes from ``output_schema()`` and its
        page count from the database's page size — the same arithmetic
        :class:`~repro.storage.heapfile.HeapFile` would apply had the
        table been written.  The budget is the database's buffer pool.
        """
        from repro.storage.heapfile import rows_per_page

        width = resolved.output_schema().width
        joined_pages = max(
            1,
            math.ceil(
                resolved.num_rows / rows_per_page(width, db.page_size_bytes)
            ),
        )
        return cls(
            fact_pages=resolved.fact.npages,
            dim_pages=tuple(
                d.relation.npages for d in resolved.dimensions
            ),
            joined_pages=joined_pages,
            block_pages=block_pages,
            budget_pages=db.buffer_pool.capacity_pages,
        )

    def join_pass_pages(self) -> int:
        """Pages one BNL pass over the base relations reads.

        Binary joins follow Section V-A exactly
        (:func:`join_pass_pages`); multi-way star joins read each
        dimension once and stream the fact relation
        (``|S| + Σ|R_i|``).
        """
        if len(self.dim_pages) == 1:
            return join_pass_pages(
                self.dim_pages[0], self.fact_pages, self.block_pages
            )
        return self.fact_pages + sum(self.dim_pages)

    def replayed_pass_pages(self) -> int:
        """Pages a pass reads once every outer block is recorded.

        A binary join scans ``S`` once per group of outer blocks whose
        fact rows fit ``budget_pages``: ``|R| + g·|S|``, ``g = min(outer
        blocks, ceil(|S| / budget))``.  Without a budget, and for
        multi-way joins, the same as :meth:`join_pass_pages`.
        """
        if len(self.dim_pages) > 1 or self.budget_pages is None:
            return self.join_pass_pages()
        groups = min(
            self.join_blocks(),
            math.ceil(self.fact_pages / self.budget_pages),
        )
        return self.dim_pages[0] + groups * self.fact_pages

    def join_blocks(self) -> int:
        """Blocks one join pass yields: outer blocks of the dimension
        for a binary join (Section V-A), fact blocks for a star."""
        outer = (
            self.dim_pages[0] if len(self.dim_pages) == 1
            else self.fact_pages
        )
        return math.ceil(outer / self.block_pages)

    def referenced(self, rows: int, distinct) -> float:
        """Distinct RIDs one pass's join blocks reference, ``rows /
        blocks`` fact rows drawn uniformly per block: a binary join's
        outer block holds ``1/blocks`` of the dimension, a star's fact
        block sees all of it — so a star deduplicates every dimension
        again in every block."""
        blocks = self.join_blocks()
        spread = blocks if len(self.dim_pages) == 1 else 1
        return sum(
            blocks * m / spread
            * (1.0 - (1.0 - min(1.0, spread / m)) ** (rows / blocks))
            for m in distinct if m
        )


# -- the model and its decision -------------------------------------------------


@dataclass(frozen=True)
class PlanDecision:
    """What :meth:`CostModel.decide` saw and chose, kept for
    observability (``PlannerStats.recent``, ``ExecMeta.decisions``)."""

    strategy: str
    rows: int
    distinct: tuple[int, ...]      # per-dimension distinct-RID counts
    dense_mults: int
    factorized_mults: int

    @property
    def saving_rate(self) -> float:
        return saving_rate(self.dense_mults, self.factorized_mults)


@dataclass(frozen=True)
class TrainingDecision(PlanDecision):
    """A :class:`PlanDecision` for a whole training run: both page
    totals, every arm's :data:`FEATURES` and the predicted seconds of
    the arms the memory budget allows — ``strategy`` is their argmin."""

    streaming_pages: int
    materialized_pages: int
    features: dict          # arm -> {feature name: value}
    predicted_s: dict       # arm -> seconds


class CostModel:
    """Multiplication and page counts for one model over one join layout.

    ``kind`` (``"gmm"`` | ``"nn"``) and ``phase`` (``"train"`` |
    ``"serve"``) select the :data:`COUNT_TABLE` row; ``d_s`` /
    ``dim_widths`` fix the layout and ``width_param`` is the model's
    per-row work multiplier (hidden width ``n_h`` for networks,
    component count ``K`` for mixtures) — all positive integers.
    Calls supply the per-batch quantities: ``n`` rows, per-dimension
    ``distinct`` RID counts (non-negative integers; ``n = 0`` is
    legal) and optionally the per-dimension cache hit rates, clamped
    to ``[0, 1]``.  Training holds no partial caches, so a training
    model ignores hit rates.
    """

    def __init__(
        self, kind: str, phase: str, *, d_s: int,
        dim_widths: tuple[int, ...], width_param: int,
    ) -> None:
        try:
            units, self.passes_per_iteration = COUNT_TABLE[kind, phase]
        except KeyError:
            raise ModelError(
                f"unknown cost model {(kind, phase)!r}; kind is "
                "'gmm'|'nn', phase 'train'|'serve'"
            ) from None
        if not dim_widths:
            raise ModelError("cost model needs at least one dimension")
        self.kind, self.phase = kind, phase
        self.d_s = _whole("d_s", d_s, 1)
        self.dim_widths = tuple(
            _whole("dimension width", w, 1) for w in dim_widths
        )
        self.width_param = _whole("width_param", width_param, 1)
        self._dense_row, self._factorized_row, self._per_distinct = units(
            self.d_s, self.dim_widths
        )

    @property
    def num_dimensions(self) -> int:
        return len(self.dim_widths)

    def decide(self, n, distinct, hit_rates=None) -> PlanDecision:
        """Both counts for one batch and the strategy with strictly
        fewer expected multiplications (ties → materialized: no gather
        or cache bookkeeping; an empty batch → factorized, at no cost).

        Cached partials are free on the dimension side, so dimension
        ``i``'s per-distinct work is discounted by ``hit_rates[i]`` —
        the link to runtime cache state.
        """
        q = self.num_dimensions
        if len(distinct) != q:
            raise ModelError(
                f"got {len(distinct)} distinct counts for {q} dimensions"
            )
        n = _whole("n", n, 0)
        distinct = tuple(_whole("distinct", m, 0) for m in distinct)
        if hit_rates is None or self.phase == TRAIN:
            misses = (1,) * q
        elif len(hit_rates) != q:
            raise ModelError(
                f"got {len(hit_rates)} hit rates for {q} dimensions"
            )
        else:
            misses = tuple(
                1.0 - min(1.0, max(0.0, float(h))) for h in hit_rates
            )
        if n == 0:
            return PlanDecision(FACTORIZED, 0, distinct, 0, 0)
        p = self.width_param
        dense = n * p * self._dense_row
        factorized = n * p * self._factorized_row
        for miss, m, unit in zip(misses, distinct, self._per_distinct):
            factorized += miss * m * p * unit
        factorized = round(factorized)
        strategy = FACTORIZED if factorized < dense else MATERIALIZED
        return PlanDecision(strategy, n, distinct, dense, factorized)

    def dense_mults(self, n: int) -> int:
        """Multiplications over ``n`` materialized rows (the dense
        count does not depend on ``distinct``)."""
        return self.decide(n, (0,) * self.num_dimensions).dense_mults

    def factorized_mults(self, n, distinct, hit_rates=None) -> int:
        """Expected multiplications with per-distinct-RID reuse."""
        return self.decide(n, distinct, hit_rates).factorized_mults

    # -- page-level training I/O (Section V-A and its NN twin) --------------

    def _data_passes(self, profile: TrainingPageProfile, iterations) -> int:
        if len(profile.dim_pages) != self.num_dimensions:
            raise ModelError(
                f"page profile covers {len(profile.dim_pages)} "
                f"dimensions, the cost model has {self.num_dimensions}"
            )
        _check_positive(iterations=iterations)
        return self.passes_per_iteration * iterations

    def materialized_io_pages(
        self, profile: TrainingPageProfile, iterations: int
    ) -> int:
        """Pages the M- strategy moves: one join pass, ``|T|`` writes,
        then ``passes_per_iteration`` reads of ``T`` per iteration."""
        passes = self._data_passes(profile, iterations)
        return profile.join_pass_pages() + (1 + passes) * profile.joined_pages

    def streaming_io_pages(
        self, profile: TrainingPageProfile, iterations: int
    ) -> int:
        """Pages the S-/F- strategies read: one join pass per data
        pass, nothing ever written — the first records the join index
        (:meth:`TrainingPageProfile.join_pass_pages`), the rest replay
        it (:meth:`TrainingPageProfile.replayed_pass_pages`)."""
        passes = self._data_passes(profile, iterations)
        return profile.join_pass_pages() + (passes - 1) * (
            profile.replayed_pass_pages()
        )

    def arm_features(
        self, counts: PlanDecision, profile: TrainingPageProfile,
        iterations: int,
    ) -> dict:
        """Each arm's :data:`FEATURES` over a whole training run whose
        passes each cost ``counts`` (:meth:`decide`).

        A row costs work per unit of model width (a responsibility and
        its exponential per component, an activation and its gradient
        per hidden unit) that no multiplication count states, so rows
        enter as ``rows · width_param``; distinct RIDs are the ones the
        join blocks reference (:meth:`TrainingPageProfile.referenced`).
        """
        passes = self._data_passes(profile, iterations)
        referenced = profile.referenced(counts.rows, counts.distinct)

        def arm(mults, pages, blocks_per_pass):
            return dict(zip(FEATURES, (
                counts.rows * self.width_param * passes, mults * passes,
                referenced * passes, pages, blocks_per_pass * passes, 1,
            )))

        streaming = self.streaming_io_pages(profile, iterations)
        return {
            MATERIALIZED: arm(
                counts.dense_mults,
                self.materialized_io_pages(profile, iterations),
                math.ceil(profile.joined_pages / profile.block_pages),
            ),
            STREAMING: arm(
                counts.dense_mults, streaming, profile.join_blocks()
            ),
            FACTORIZED: arm(
                counts.factorized_mults, streaming, profile.join_blocks()
            ),
        }


def serving_cost_model(
    kind: str, *, d_s: int, dim_widths: tuple[int, ...], width_param: int
) -> CostModel:
    """The inference cost model for ``kind`` ("gmm" | "nn")."""
    return CostModel(
        kind, SERVE, d_s=d_s, dim_widths=dim_widths, width_param=width_param
    )


def training_cost_model(
    kind: str, *, d_s: int, dim_widths: tuple[int, ...], width_param: int
) -> CostModel:
    """The per-pass training cost model for ``kind`` ("gmm" | "nn")."""
    return CostModel(
        kind, TRAIN, d_s=d_s, dim_widths=dim_widths, width_param=width_param
    )


#: The basis functions of a training run's seconds, per arm: rows read
#: times the model width (K / n_h), the arm's multiplications (dense for
#: M-/S-, factorized for F-), distinct RIDs the join blocks reference,
#: join blocks — each summed over the run's data passes — the pages the
#: run moves, and a constant per fit.
FEATURES = ("row_units", "mults", "distinct", "pages", "blocks", "fit")

#: Seconds per unit of each :data:`FEATURES` entry, per ``(kind, arm)``,
#: at the 2-core reference host's full speed: ``tools/calibrate_costs.py``'s
#: least-squares fit, the e2e shapes held out (docs/tuning.md has the
#: residuals and regrets).
TRAINING_SECONDS = {
    ("gmm", "materialized"): (4.049e-08, 2.055e-10, 7.22e-08, 2.452e-06, 0.0003896, 0.006453),
    ("gmm", "streaming"): (4.833e-08, 2.235e-10, 1.161e-07, 1.821e-06, 0, 0.01349),
    ("gmm", "factorized"): (4.813e-08, 3.425e-10, 6.392e-07, 6.447e-08, 0.0008851, 0.0004371),
    ("nn", "materialized"): (8.805e-09, 1.369e-10, 9.698e-08, 3.15e-06, 0.0001394, 0.007514),
    ("nn", "streaming"): (8.086e-09, 2.244e-10, 1.365e-07, 2.638e-06, 0, 0.005813),
    ("nn", "factorized"): (9.453e-09, 3.937e-10, 1.413e-07, 1.772e-06, 0.0001889, 0.003762),
}


def recommend_training_strategy(
    kind: str,
    *,
    rows: int,
    distinct: tuple[int, ...],
    d_s: int,
    dim_widths: tuple[int, ...],
    width_param: int,
    pages: TrainingPageProfile,
    iterations: int,
    memory_budget_pages: int | None = None,
) -> TrainingDecision:
    """Pick the training strategy predicted to finish first.

    ``rows`` is the join cardinality, ``distinct`` the dimension
    relation cardinalities, ``pages`` the run's page geometry and
    ``iterations`` its length (EM iterations for ``"gmm"``, epochs for
    ``"nn"``).  Each arm's predicted seconds are
    ``TRAINING_SECONDS[kind, arm] · features`` over the counts of
    :meth:`CostModel.decide`, the page totals and the join blocks
    (:meth:`CostModel.arm_features`); the argmin wins, ties to
    materialized.  ``memory_budget_pages`` (e.g. the database's buffer
    pool capacity) is the memory clamp: a materialized ``T`` bigger
    than the budget is no candidate.  The returned record carries
    everything the choice was made from — ``algorithm="auto"`` stores
    it as ``fit.extra["auto"]``.

    >>> decision = recommend_training_strategy(
    ...     "gmm", rows=200_000, distinct=(100_000,), d_s=5,
    ...     dim_widths=(5,), width_param=5,
    ...     pages=TrainingPageProfile(
    ...         fact_pages=1563, dim_pages=(589,), joined_pages=2353),
    ...     iterations=3, memory_budget_pages=1024)
    >>> decision.strategy, sorted(decision.predicted_s)
    ('streaming', ['factorized', 'streaming'])
    """
    model = training_cost_model(
        kind, d_s=d_s, dim_widths=dim_widths, width_param=width_param
    )
    counts = model.decide(rows, distinct)
    features = model.arm_features(counts, pages, iterations)
    over_budget = (
        memory_budget_pages is not None
        and pages.joined_pages > memory_budget_pages
    )
    predicted = {
        arm: sum(
            weight * value for weight, value in
            zip(TRAINING_SECONDS[kind, arm], values.values())
        )
        for arm, values in features.items()
        if not (over_budget and arm == MATERIALIZED)
    }
    return TrainingDecision(
        min(predicted, key=predicted.get), counts.rows, counts.distinct,
        counts.dense_mults, counts.factorized_mults,
        model.streaming_io_pages(pages, iterations),
        model.materialized_io_pages(pages, iterations),
        features, predicted,
    )


# -- Section VI-A2: reuse beyond the first layer --------------------------------


@dataclass(frozen=True)
class Layer2OpCount:
    """Multiplications and additions to produce all second-layer units."""

    multiplications: int
    additions: int

    @property
    def total(self) -> int:
        return self.multiplications + self.additions


def layer2_ops_standard(n: int, n_h: int, n_l: int) -> Layer2OpCount:
    """Eq. 25: each of the ``n_l`` units needs ``n_h`` multiplications
    and ``n_h`` additions per tuple."""
    _check_positive(n=n, n_h=n_h, n_l=n_l)
    return Layer2OpCount(
        multiplications=n * n_l * n_h, additions=n * n_l * n_h
    )


def layer2_ops_with_reuse(
    n: int, m: int, n_h: int, n_l: int
) -> Layer2OpCount:
    """Eq. 27: the per-tuple cost is unchanged (``n_h`` mult + ``n_h``
    add to combine ``w⁽²⁾f(T1)`` and add ``T3``), while building ``T3``
    costs another ``n_h`` mult + ``n_h`` add per distinct dimension
    tuple — the standard count at ``n + m`` rows, so reuse can never
    win at layer 2."""
    _check_positive(n=n, m=m)
    return layer2_ops_standard(n + m, n_h, n_l)


def layer2_reuse_overhead(n: int, m: int, n_h: int, n_l: int) -> int:
    """Extra operations the layer-2 reuse performs versus standard —
    strictly positive for any ``m ≥ 1`` (the paper's conclusion)."""
    return (
        layer2_ops_with_reuse(n, m, n_h, n_l).total
        - layer2_ops_standard(n, n_h, n_l).total
    )
