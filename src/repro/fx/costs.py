"""One cost-model interface over the paper's published counts.

Three divergent cost-model implementations grew up around the same
idea: :mod:`repro.gmm.cost_model` (training, Sections V-A/V-B),
:mod:`repro.nn.cost_model` (training, Section VI) and
:mod:`repro.serve.cost_model` (inference) each expose free functions
with their own argument orders, and the runtime's batch planner carried
a *fourth* copy — the multi-way generalization — inline.  This module
is the single interface those callers now share:

* :class:`CostModel` — the protocol: ``dense_mults(n)`` vs
  ``factorized_mults(n, distinct, hit_rates)`` for one workload shape,
  plus ``choose()``/``saving_rate()`` built on top;
* :class:`NNServingCost` / :class:`GMMServingCost` — inference
  adapters: one additive multi-way formula each, which at one
  dimension *is* the published :mod:`repro.serve.cost_model`
  binary-join formula (asserted by the tests against that module);
* :class:`NNTrainingCost` / :class:`GMMTrainingCost` — per-pass
  training adapters over the Section V-B / VI-A1 counts, consumed by
  the ``algorithm="auto"`` training strategy resolution.

The training adapters also fold in the paper's *page-level I/O*
models (Section V-A and its NN twin): given a
:class:`TrainingPageProfile` they answer
``materialized_io_pages()`` / ``streaming_io_pages()`` — binary joins
delegate to the published :mod:`repro.gmm.cost_model` /
:mod:`repro.nn.cost_model` page formulas exactly, multi-way joins use
the additive ``|S| + Σ|R_i|`` pass generalization.  That is what lets
:func:`recommend_training_strategy` return ``"streaming"``: when the
dense representation wins on compute but materializing ``T`` loses on
pages (or ``T`` would blow a memory budget), streaming is the honest
answer — memory, not compute, was the binding constraint.

Ties go to the dense path everywhere: when factorization saves
nothing, the wide batch avoids gather bookkeeping and cache
maintenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from typing import Protocol, runtime_checkable

from repro.core.strategies import FACTORIZED, MATERIALIZED, STREAMING
from repro.errors import ModelError
from repro.gmm.cost_model import dense_outer_cost, join_pass_pages
from repro.nn.cost_model import layer1_forward_mults_dense
from repro.serve.cost_model import (
    gmm_serving_mults_dense,
    nn_serving_mults_dense,
)


@dataclass(frozen=True)
class TrainingPageProfile:
    """The page geometry one training run reads and writes.

    ``fact_pages`` / ``dim_pages`` are the base relations' heap sizes;
    ``joined_pages`` is (an estimate of) the materialized join result
    ``|T|``; ``block_pages`` is the BNL outer-block size the run will
    use.  Built by ``algorithm="auto"`` resolution from the resolved
    join (:func:`TrainingPageProfile.for_join`) and consumed by the
    training adapters' I/O methods.
    """

    fact_pages: int
    dim_pages: tuple[int, ...]
    joined_pages: int
    block_pages: int = 64

    def __post_init__(self) -> None:
        if (
            self.fact_pages <= 0
            or self.joined_pages <= 0
            or self.block_pages <= 0
            or not self.dim_pages
            or any(p <= 0 for p in self.dim_pages)
        ):
            raise ModelError(
                "a page profile needs positive page counts and at "
                "least one dimension"
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
        (``|R| + ceil(|R|/BlockSize)·|S|``); multi-way star joins read
        each dimension once and stream the fact relation
        (``|S| + Σ|R_i|``).
        """
        if len(self.dim_pages) == 1:
            return join_pass_pages(
                self.dim_pages[0], self.fact_pages, self.block_pages
            )
        return self.fact_pages + sum(self.dim_pages)


@runtime_checkable
class CostModel(Protocol):
    """Multiplication counts for one model over one join layout.

    Implementations fix the static layout (fact width ``d_s``, one
    width per dimension, and the model's per-row work multiplier —
    hidden width ``n_h`` for networks, component count ``K`` for
    mixtures); calls supply the per-batch quantities: ``n`` rows,
    per-dimension ``distinct`` RID counts, and optionally the current
    per-dimension cache hit rates.
    """

    kind: str

    def dense_mults(self, n: int) -> int: ...

    def factorized_mults(
        self,
        n: int,
        distinct: tuple[int, ...],
        hit_rates: tuple[float, ...] | None = None,
    ) -> int: ...

    def choose(
        self,
        n: int,
        distinct: tuple[int, ...],
        hit_rates: tuple[float, ...] | None = None,
    ) -> str: ...


class _CostModelBase:
    """Layout validation plus the decision logic shared by adapters."""

    kind = "?"

    def __init__(
        self, d_s: int, dim_widths: tuple[int, ...], width_param: int
    ) -> None:
        if d_s <= 0 or width_param <= 0 or not dim_widths:
            raise ModelError(
                "cost model needs positive d_s, width_param and at "
                "least one dimension"
            )
        if any(w <= 0 for w in dim_widths):
            raise ModelError(
                f"dimension widths must be positive, got {dim_widths}"
            )
        self.d_s = int(d_s)
        self.dim_widths = tuple(int(w) for w in dim_widths)
        self.width_param = int(width_param)

    @property
    def num_dimensions(self) -> int:
        return len(self.dim_widths)

    def _normalize(self, n, distinct, hit_rates):
        distinct = tuple(int(m) for m in distinct)
        if len(distinct) != self.num_dimensions:
            raise ModelError(
                f"got {len(distinct)} distinct counts for "
                f"{self.num_dimensions} dimensions"
            )
        if hit_rates is None:
            hit_rates = tuple(0.0 for _ in distinct)
        if len(hit_rates) != self.num_dimensions:
            raise ModelError(
                f"got {len(hit_rates)} hit rates for "
                f"{self.num_dimensions} dimensions"
            )
        hit_rates = tuple(min(1.0, max(0.0, float(h))) for h in hit_rates)
        return int(n), distinct, hit_rates

    def choose(self, n, distinct, hit_rates=None) -> str:
        """The strategy with strictly fewer expected multiplications
        (ties → materialized: no gather or cache bookkeeping)."""
        if n == 0:
            return FACTORIZED
        factorized = self.factorized_mults(n, distinct, hit_rates)
        return FACTORIZED if factorized < self.dense_mults(n) else (
            MATERIALIZED
        )

    def saving_rate(self, n, distinct, hit_rates=None) -> float:
        """Fraction of multiplications the factorized path removes."""
        dense = self.dense_mults(n)
        if not dense:
            return 0.0
        return (dense - self.factorized_mults(n, distinct, hit_rates)) / (
            dense
        )


# -- serving adapters ----------------------------------------------------------


class NNServingCost(_CostModelBase):
    """First-layer inference counts (Section VI-A1, one forward pass)."""

    kind = "nn"

    def dense_mults(self, n: int) -> int:
        # Dense scoring only sees the total width, so the cost model's
        # binary formula covers every join shape.
        if n == 0:
            return 0
        return nn_serving_mults_dense(
            n, self.d_s, sum(self.dim_widths), self.width_param
        )

    def factorized_mults(self, n, distinct, hit_rates=None) -> int:
        n, distinct, hit_rates = self._normalize(n, distinct, hit_rates)
        if n == 0:
            return 0
        total = n * self.width_param * self.d_s
        for m, d_r, hit in zip(distinct, self.dim_widths, hit_rates):
            total += (1.0 - hit) * m * self.width_param * d_r
        return round(total)


class GMMServingCost(_CostModelBase):
    """Mahalanobis scoring counts (Eq. 9–12/19, one scoring pass)."""

    kind = "gmm"

    def dense_mults(self, n: int) -> int:
        if n == 0:
            return 0
        return gmm_serving_mults_dense(
            n, self.d_s, sum(self.dim_widths), self.width_param
        )

    def factorized_mults(self, n, distinct, hit_rates=None) -> int:
        n, distinct, hit_rates = self._normalize(n, distinct, hit_rates)
        if n == 0:
            return 0
        k = self.width_param
        # Per fact row, the UL block + one cross dot per dimension +
        # one coupling dot per dimension pair (Eq. 9-12/19); per
        # distinct RID of dimension i, the cross product, the LR form
        # and the coupling factors against later dimensions.
        widths = self.dim_widths
        total = n * k * (self.d_s * self.d_s + self.d_s)
        total += n * k * self.d_s * len(widths)        # cross dots
        for i in range(len(widths)):
            for j in range(i + 1, len(widths)):
                total += n * k * widths[j]             # coupling dots
        for i, (m, d_r, hit) in enumerate(
            zip(distinct, widths, hit_rates)
        ):
            later = sum(widths[i + 1:])
            per_distinct = (
                d_r * self.d_s + d_r * d_r + d_r + d_r * later
            )
            total += (1.0 - hit) * m * k * per_distinct
        return round(total)


# -- training adapters ---------------------------------------------------------


class _TrainingIOBase(_CostModelBase):
    """Page-level I/O shared by the training adapters.

    ``passes_per_iteration`` is how many times one training iteration
    reads the joined data: three for EM (E-step, ``Sum_µ``, ``Sum_Σ``
    — Algorithm 1), one for an NN epoch (forward and backward share a
    pass).  For binary joins these counts reproduce the published page
    formulas (:func:`repro.gmm.cost_model.m_gmm_io_pages` /
    :func:`~repro.gmm.cost_model.s_gmm_io_pages` and
    :func:`repro.nn.cost_model.m_nn_io_pages` /
    :func:`~repro.nn.cost_model.s_nn_io_pages`) exactly — asserted by
    the tests; multi-way joins use the additive pass generalization of
    :meth:`TrainingPageProfile.join_pass_pages`.
    """

    passes_per_iteration = 1

    def _check_profile(self, profile: TrainingPageProfile) -> None:
        if len(profile.dim_pages) != self.num_dimensions:
            raise ModelError(
                f"page profile covers {len(profile.dim_pages)} "
                f"dimensions, the cost model has {self.num_dimensions}"
            )

    def materialized_io_pages(
        self, profile: TrainingPageProfile, iterations: int
    ) -> int:
        """Pages the M- strategy moves: one join pass, ``|T|`` writes,
        then ``passes_per_iteration`` reads of ``T`` per iteration."""
        self._check_profile(profile)
        return (
            profile.join_pass_pages()
            + profile.joined_pages
            + self.passes_per_iteration * iterations * profile.joined_pages
        )

    def streaming_io_pages(
        self, profile: TrainingPageProfile, iterations: int
    ) -> int:
        """Pages the S-/F- strategies read: one join pass per data
        pass, nothing ever written."""
        self._check_profile(profile)
        return (
            self.passes_per_iteration
            * iterations
            * profile.join_pass_pages()
        )


class NNTrainingCost(_TrainingIOBase):
    """Per-pass first-layer training counts (Section VI-A1).

    Each dimension's saved products ``(n − m_i)·n_h·d_Ri`` come off
    the dense count — the same additive structure the serving adapters
    use; at one dimension this is
    :func:`repro.nn.cost_model.layer1_forward_mults_factorized`
    exactly (asserted by the tests).  ``hit_rates`` are accepted for
    interface uniformity but training holds no partial caches, so they
    are ignored.
    """

    kind = "nn"

    def dense_mults(self, n: int) -> int:
        if n == 0:
            return 0
        return layer1_forward_mults_dense(
            n, self.d_s + sum(self.dim_widths), self.width_param
        )

    def factorized_mults(self, n, distinct, hit_rates=None) -> int:
        n, distinct, _ = self._normalize(n, distinct, hit_rates)
        if n == 0:
            return 0
        total = self.dense_mults(n)
        for m, d_r in zip(distinct, self.dim_widths):
            total -= (n - m) * self.width_param * d_r
        return total


class GMMTrainingCost(_TrainingIOBase):
    """Per-pass Σ-update outer-product counts (Eq. 14, Section V-B).

    Each dimension's diagonal block runs at distinct cardinality,
    i.e. ``(n − m_i)·d_Ri²`` per dimension comes off the dense count;
    at one dimension these are the multiplication counts of
    :func:`repro.gmm.cost_model.dense_outer_cost` /
    :func:`~repro.gmm.cost_model.factorized_outer_cost` times the
    component count (asserted by the tests).  ``width_param`` is the
    component count ``K``;
    ``hit_rates`` are ignored (training holds no partial caches).
    """

    kind = "gmm"
    passes_per_iteration = 3

    def dense_mults(self, n: int) -> int:
        # dense_outer_cost only sees the total width, so the binary
        # formula covers every join shape (d_r = Σ d_Ri).
        if n == 0:
            return 0
        per_component = dense_outer_cost(
            n, self.d_s, sum(self.dim_widths)
        ).multiplications
        return self.width_param * int(per_component)

    def factorized_mults(self, n, distinct, hit_rates=None) -> int:
        n, distinct, _ = self._normalize(n, distinct, hit_rates)
        if n == 0:
            return 0
        total = self.dense_mults(n)
        for m, d_r in zip(distinct, self.dim_widths):
            total -= self.width_param * (n - m) * d_r * d_r
        return total


# -- factories and strategy recommendation ------------------------------------


_SERVING = {"gmm": GMMServingCost, "nn": NNServingCost}
_TRAINING = {"gmm": GMMTrainingCost, "nn": NNTrainingCost}


def _make(registry, kind, d_s, dim_widths, width_param):
    try:
        cls = registry[kind]
    except KeyError:
        raise ModelError(
            f"unknown cost-model kind {kind!r}; use 'gmm'|'nn'"
        ) from None
    return cls(d_s, dim_widths, width_param)


def serving_cost_model(
    kind: str, *, d_s: int, dim_widths: tuple[int, ...], width_param: int
) -> CostModel:
    """The inference cost adapter for ``kind`` ("gmm" | "nn")."""
    return _make(_SERVING, kind, d_s, dim_widths, width_param)


def training_cost_model(
    kind: str, *, d_s: int, dim_widths: tuple[int, ...], width_param: int
) -> CostModel:
    """The per-pass training cost adapter for ``kind`` ("gmm" | "nn")."""
    return _make(_TRAINING, kind, d_s, dim_widths, width_param)


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
) -> str:
    """Pick a training strategy from compute *and* page I/O counts.

    ``rows`` is the join cardinality and ``distinct`` the dimension
    relation cardinalities — the static estimate of the per-batch
    tuple ratio.  Compute decides first: if factorization removes
    multiplications, ``"factorized"`` wins outright (it also has the
    cheapest I/O — the streaming page schedule, nothing written).

    When the dense representation wins on compute, the remaining
    question is *where the dense batches come from*, and that is pure
    I/O: with a ``pages`` profile and the run length (``iterations`` —
    EM iterations for ``"gmm"``, epochs for ``"nn"``), the adapter's
    page counts settle materialize-once-read-many against
    re-join-every-pass, and ``"streaming"`` is returned when it moves
    fewer pages.  ``memory_budget_pages`` (e.g. the database's buffer
    pool capacity) is the memory clamp: a materialized ``T`` bigger
    than the budget cannot be served from cache, so streaming wins
    regardless of raw page counts.  Without ``pages`` the decision is
    compute-only, as before.

    >>> recommend_training_strategy(
    ...     "gmm", rows=500, distinct=(500,), d_s=2, dim_widths=(10,),
    ...     width_param=3,
    ...     pages=TrainingPageProfile(
    ...         fact_pages=6, dim_pages=(11,), joined_pages=17),
    ...     iterations=1)
    'streaming'
    """
    model = training_cost_model(
        kind, d_s=d_s, dim_widths=dim_widths, width_param=width_param
    )
    choice = model.choose(rows, distinct)
    if choice == FACTORIZED or pages is None:
        return choice
    if (
        memory_budget_pages is not None
        and pages.joined_pages > memory_budget_pages
    ):
        return STREAMING
    if iterations is None:
        return choice
    streaming = model.streaming_io_pages(pages, iterations)
    materialized = model.materialized_io_pages(pages, iterations)
    return STREAMING if streaming < materialized else MATERIALIZED
