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
  :meth:`CostModel.decide` is the only place the choice between the
  factorized and the materialized representation is made; both
  ``algorithm="auto"`` (through :func:`recommend_training_strategy`)
  and the runtime's :class:`~repro.runtime.planner.BatchPlanner` call
  it and keep the :class:`PlanDecision` it returns.
* **Paper analyses without a chooser** — the §V-A BlockSize crossover
  and the §VI-A2 "reuse never wins at layer 2" op counts — validated by
  ``tests/fx/test_costs.py`` and the ``bench_io_cost`` /
  ``bench_layer2_ablation`` benches.

The training models also carry the page-level I/O model (Section V-A
and its NN twin): given a :class:`TrainingPageProfile` they answer
:meth:`~CostModel.materialized_io_pages` /
:meth:`~CostModel.streaming_io_pages`, which is what lets
:func:`recommend_training_strategy` return ``"streaming"`` when the
dense representation wins on compute but materializing ``T`` loses on
pages (or would not fit the memory budget).

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
    use.  Built by ``algorithm="auto"`` resolution from the resolved
    join (:func:`TrainingPageProfile.for_join`) and consumed by
    :class:`CostModel`'s I/O methods.
    """

    fact_pages: int
    dim_pages: tuple[int, ...]
    joined_pages: int
    block_pages: int = 64

    def __post_init__(self) -> None:
        if not self.dim_pages:
            raise ModelError("a page profile needs at least one dimension")
        _check_positive(
            fact_pages=self.fact_pages, joined_pages=self.joined_pages,
            block_pages=self.block_pages, dim_pages=min(self.dim_pages),
        )

    @classmethod
    def for_join(cls, resolved, *, page_size_bytes: int,
                 block_pages: int) -> "TrainingPageProfile":
        """Profile a resolved join, estimating ``|T|`` from its schema.

        ``resolved`` is a :class:`~repro.join.spec.ResolvedJoin`; the
        joined table's width comes from ``output_schema()`` and its
        page count from the database's page size — the same arithmetic
        :class:`~repro.storage.heapfile.HeapFile` would apply had the
        table been written.
        """
        from repro.storage.heapfile import rows_per_page

        width = resolved.output_schema().width
        joined_pages = max(
            1,
            math.ceil(
                resolved.num_rows / rows_per_page(width, page_size_bytes)
            ),
        )
        return cls(
            fact_pages=resolved.fact.npages,
            dim_pages=tuple(
                d.relation.npages for d in resolved.dimensions
            ),
            joined_pages=joined_pages,
            block_pages=block_pages,
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
    """A :class:`PlanDecision` for a whole training run, with the page
    totals that settled materialized vs streaming (``None`` when the
    caller gave no page profile or run length)."""

    streaming_pages: int | None = None
    materialized_pages: int | None = None


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
        pass, nothing ever written."""
        return self._data_passes(profile, iterations) * (
            profile.join_pass_pages()
        )


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


def recommend_training_strategy(
    kind: str,
    *,
    rows: int,
    distinct: tuple[int, ...],
    d_s: int,
    dim_widths: tuple[int, ...],
    width_param: int,
    pages: TrainingPageProfile | None = None,
    iterations: int | None = None,
    memory_budget_pages: int | None = None,
) -> TrainingDecision:
    """Pick a training strategy from compute *and* page I/O counts.

    ``rows`` is the join cardinality and ``distinct`` the dimension
    relation cardinalities — the static estimate of the per-batch
    tuple ratio.  Compute decides first (:meth:`CostModel.decide`): if
    factorization removes multiplications, ``"factorized"`` wins
    outright (it also has the cheapest I/O — the streaming page
    schedule, nothing written).

    When the dense representation wins on compute, the remaining
    question is *where the dense batches come from*, and that is pure
    I/O: with a ``pages`` profile and the run length (``iterations`` —
    EM iterations for ``"gmm"``, epochs for ``"nn"``), the model's
    page counts settle materialize-once-read-many against
    re-join-every-pass, and ``"streaming"`` is chosen when it moves
    fewer pages.  ``memory_budget_pages`` (e.g. the database's buffer
    pool capacity) is the memory clamp: a materialized ``T`` bigger
    than the budget cannot be served from cache, so streaming wins
    regardless of raw page counts.  Without ``pages`` the decision is
    compute-only.  The returned record carries everything the choice
    was made from — ``algorithm="auto"`` stores it as
    ``fit.extra["auto"]``.

    >>> recommend_training_strategy(
    ...     "gmm", rows=500, distinct=(500,), d_s=2, dim_widths=(10,),
    ...     width_param=3,
    ...     pages=TrainingPageProfile(
    ...         fact_pages=6, dim_pages=(11,), joined_pages=17),
    ...     iterations=1).strategy
    'streaming'
    """
    model = training_cost_model(
        kind, d_s=d_s, dim_widths=dim_widths, width_param=width_param
    )
    compute = model.decide(rows, distinct)
    streaming = materialized = None
    if pages is not None and iterations is not None:
        streaming = model.streaming_io_pages(pages, iterations)
        materialized = model.materialized_io_pages(pages, iterations)
    strategy = compute.strategy
    if strategy == MATERIALIZED and pages is not None:
        over_budget = (
            memory_budget_pages is not None
            and pages.joined_pages > memory_budget_pages
        )
        fewer_pages = streaming is not None and streaming < materialized
        if over_budget or fewer_pages:
            strategy = STREAMING
    return TrainingDecision(
        strategy, compute.rows, compute.distinct, compute.dense_mults,
        compute.factorized_mults, streaming, materialized,
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
