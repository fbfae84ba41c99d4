"""The one training path: ``train(kind, strategy)``.

The paper's argument (Fig. 1, Sections V–VI) is that M-, S- and F- are
the *same* algorithm fed through three access paths, and that GMM and
NN differ only in the kernels plugged in.  That 2 × 3 matrix is stated
here once, as two tables:

* :data:`ACCESS` — how the joined data reaches the model: materialize
  ``T`` and read it back, re-join on the fly, or re-join and keep the
  batches factorized.  :func:`open_access` is the only place outside
  :mod:`repro.join` that constructs an access path.
* :data:`KINDS` — what a model family plugs in: the one engine its
  three arms share, its driver, whether it needs a TARGET.

:func:`train` runs one cell and does the bookkeeping every cell
shares.  All arms of a kind return the same model.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from repro.core.strategies import (
    AUTO,
    FACTORIZED,
    MATERIALIZED,
    STREAMING,
    resolve_strategy,
)
from repro.errors import ModelError
from repro.fx.costs import TrainingPageProfile, recommend_training_strategy
from repro.gmm.base import run_em
from repro.gmm.engines import FactorizedEMEngine
from repro.join.bnl import DEFAULT_BLOCK_PAGES
from repro.join.factorized import FactorizedJoin
from repro.join.materialize import MaterializedTable, materialize_join
from repro.join.spec import JoinSpec, ResolvedJoin
from repro.join.stream import StreamingJoin
from repro.nn.base import run_training
from repro.nn.engines import FactorizedNNEngine
from repro.nn.network import build_model
from repro.obs.training import publish_join_index
from repro.storage.catalog import Database


@contextmanager
def _materialized(db, spec, *, table_name, keep_table, **order):
    """Fig. 1(a): join once, write ``T``, read it back every pass.
    ``T`` is dropped on *any* exit — a join that fails part-way
    included — unless ``keep_table``."""
    try:
        table = materialize_join(
            db, spec, table_name,
            block_pages=order["block_pages"], replace=True,
        )
        yield MaterializedTable(table, **order)
    finally:
        if not keep_table:
            db.drop_relation(table_name, missing_ok=True)


def _streaming(db, spec, *, table_name, keep_table, **order):
    """Fig. 1(b): every pass re-joins; batches arrive inlined.  Open,
    the access borrows the database's join index."""
    return StreamingJoin(db, spec, **order)


def _factorized(db, spec, *, table_name, keep_table, **order):
    """Fig. 1(c): S-'s page schedule, batches kept factorized."""
    return FactorizedJoin(db, spec, **order)


def _table_facts(access, seconds, telemetry, label) -> dict:
    return {
        "materialize_seconds": seconds,
        "table_pages": access.table.npages,
    }


def _index_facts(access, seconds, telemetry, label) -> dict:
    return {
        "join_index": publish_join_index(
            telemetry, label, access.index.stats()
        ),
    }


@dataclass(frozen=True)
class AccessPath:
    """One way the joined data reaches a model (a row of Fig. 1)."""

    letter: str                 # the paper's prefix: M / S / F
    open: Callable              # context manager yielding the access
    facts: Callable             # what the arm adds to ``fit.extra``


ACCESS = {
    MATERIALIZED: AccessPath("M", _materialized, _table_facts),
    STREAMING: AccessPath("S", _streaming, _index_facts),
    FACTORIZED: AccessPath("F", _factorized, _index_facts),
}


def open_access(
    db: Database,
    spec: JoinSpec,
    strategy: str,
    block_pages: int = DEFAULT_BLOCK_PAGES,
    *,
    shuffle: bool = False,
    seed: int = 0,
    table_name: str | None = None,
    keep_table: bool = False,
):
    """Context manager over ``strategy``'s access path to the join.

    ``shuffle`` / ``seed`` are the paper's per-epoch SGD permutation;
    ``table_name`` / ``keep_table`` concern the materialized ``T`` only.
    """
    return ACCESS[strategy].open(
        db, spec, table_name=table_name, keep_table=keep_table,
        block_pages=block_pages, shuffle=shuffle, seed=seed,
    )


def _drive_gmm(engine, access, n_features, config, start, **run):
    return run_em(
        engine(access, n_features=n_features), config, initial=start, **run
    )


def _drive_nn(engine, access, n_features, config, start, **run):
    model = start if start is not None else build_model(n_features, config)
    return run_training(engine(access, model), config, **run)


@dataclass(frozen=True)
class ModelKind:
    """What a model family plugs into the shared path."""

    label: str                  # "GMM" / "NN": the arm is "{M,S,F}-label"
    engine: type                # reads every arm's batches
    drive: Callable
    needs_target: bool
    start_width: Callable       # feature width of a caller-supplied start
    order: Callable             # config -> the access's shuffle / seed
    cost_shape: Callable        # config -> (width parameter, data passes)


KINDS = {
    "gmm": ModelKind(
        "GMM", FactorizedEMEngine, _drive_gmm,
        needs_target=False,
        start_width=lambda params: params.n_features,
        order=lambda config: {},
        cost_shape=lambda config: (config.n_components, config.max_iter),
    ),
    "nn": ModelKind(
        "NN", FactorizedNNEngine, _drive_nn,
        needs_target=True,
        start_width=lambda model: model.n_inputs,
        order=lambda config: {
            "shuffle": config.shuffle, "seed": config.seed,
        },
        cost_shape=lambda config: (config.hidden_sizes[0], config.epochs),
    ),
}


def _choose(
    db: Database, resolved: ResolvedJoin, kind: str,
    width_param: int, iterations: int, block_pages: int,
) -> dict:
    """Settle ``"auto"`` from the one cost model: the fit result's
    ``extra["auto"]``, read off the one
    :class:`~repro.fx.costs.TrainingDecision` (the policy is
    :func:`~repro.fx.costs.recommend_training_strategy`'s; the buffer
    pool's capacity is the budget a materialized ``T`` must fit in, and
    the one a replayed binary pass groups its fact rows in) —
    the counts, every arm's features and the predicted seconds of the
    arms it chose among."""
    layout = resolved.layout
    decision = recommend_training_strategy(
        kind,
        rows=resolved.num_rows,
        distinct=tuple(d.relation.nrows for d in resolved.dimensions),
        d_s=layout.sizes[0],
        dim_widths=tuple(layout.sizes[1:]),
        width_param=width_param,
        pages=TrainingPageProfile.for_join(
            db, resolved, block_pages=block_pages
        ),
        iterations=iterations,
        memory_budget_pages=db.buffer_pool.capacity_pages,
    )
    return {
        "chosen": decision.strategy,
        "dense_mults": decision.dense_mults,
        "factorized_mults": decision.factorized_mults,
        "streaming_pages": decision.streaming_pages,
        "materialized_pages": decision.materialized_pages,
        "predicted_s": decision.predicted_s,
        "features": decision.features,
    }


def train(
    db: Database,
    spec: JoinSpec,
    kind: str,
    strategy: str,
    config,
    *,
    block_pages: int = DEFAULT_BLOCK_PAGES,
    telemetry=None,
    start=None,
    table_name: str | None = None,
    keep_table: bool = False,
):
    """Fit a ``kind`` (``"gmm"`` / ``"nn"``) model over the star join
    ``spec`` through ``strategy``'s access path.

    ``strategy`` takes the vocabulary of
    :func:`~repro.core.strategies.resolve_strategy`; ``"auto"`` settles
    from the cost model and records what it saw in ``extra["auto"]``.
    ``config`` is the kind's ``EMConfig`` / ``NNConfig``; ``start``
    the ``GMMParams`` EM starts from / the ``MLP`` trained in place.
    Returns the kind's fit result, labelled ``"{M,S,F}-{GMM,NN}"``:
    ``extra`` carries the dedup counters and per-step series on every
    arm, ``join_index`` on S- / F-, ``materialize_seconds`` /
    ``table_pages`` on M- (``T`` is named ``table_name`` and dropped
    unless ``keep_table``; writing it — line 1 of Algorithm 1 — counts
    in ``wall_time_seconds``); ``io`` is the run's page-count delta.

    Everything that can be refused is refused before a page moves: an
    unknown ``kind`` / ``strategy``, a missing TARGET, a ``start`` of
    the wrong feature width — and a bad config value, which the config
    refuses when it is built.
    """
    family = KINDS.get(kind)
    if family is None:
        raise ModelError(
            f"unknown model kind {kind!r}; use one of {sorted(KINDS)}"
        )
    strategy = resolve_strategy(strategy)
    resolved = spec.resolve(db)
    n_features = resolved.total_features
    if family.needs_target and not resolved.has_target:
        raise ModelError(
            f"{family.label} training requires the fact relation to "
            "declare a TARGET column (the Y attribute of Section IV)"
        )
    if start is not None and family.start_width(start) != n_features:
        raise ModelError(
            f"the supplied start has {family.start_width(start)} "
            f"features, the join has {n_features}"
        )
    auto = None
    if strategy == AUTO:
        auto = _choose(
            db, resolved, kind, *family.cost_shape(config), block_pages
        )
        strategy = auto["chosen"]
    arm = ACCESS[strategy]
    label = f"{arm.letter}-{family.label}"
    before = db.stats.snapshot()
    tick = time.perf_counter()
    with open_access(
        db, spec, strategy, block_pages,
        table_name=table_name
        or f"_T_{spec.fact}_{label.replace('-', '').lower()}",
        keep_table=keep_table,
        **family.order(config),
    ) as access:
        opened = time.perf_counter() - tick
        result = family.drive(
            family.engine, access, n_features, config, start,
            algorithm=label, telemetry=telemetry,
        )
        result.wall_time_seconds += opened
        result.extra.update(arm.facts(access, opened, telemetry, label))
    if auto is not None:
        result.extra["auto"] = auto
    result.io = db.stats.snapshot() - before
    return result
