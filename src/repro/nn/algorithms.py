"""The three NN training strategies: M-NN, S-NN, F-NN (Section VI).

Same execution-strategy trio as the GMM side: materialize / stream /
factorize.  All three train the same architecture from the same seeded
initialization; in full-batch mode they produce identical weights, and
S-NN vs F-NN are identical in every mode because they consume identical
batches.
"""

from __future__ import annotations

import time

from repro.nn.base import NNConfig, NNFitResult, run_training
from repro.nn.engines import DenseNNEngine, FactorizedNNEngine
from repro.nn.network import MLP
from repro.errors import ModelError
from repro.join.bnl import DEFAULT_BLOCK_PAGES
from repro.join.factorized import FactorizedJoin
from repro.join.materialize import MaterializedTable, materialize_join
from repro.join.spec import JoinSpec
from repro.join.stream import StreamingJoin
from repro.storage.catalog import Database

M_NN = "M-NN"
S_NN = "S-NN"
F_NN = "F-NN"


def build_model(n_features: int, config: NNConfig) -> MLP:
    """The architecture all three strategies share: ``d`` inputs, the
    configured hidden layers, one linear output unit."""
    sizes = (n_features, *config.hidden_sizes, 1)
    return MLP(
        sizes,
        activation=config.activation,
        loss=config.loss,
        seed=config.seed,
    )


def _check_has_target(has_target: bool) -> None:
    if not has_target:
        raise ModelError(
            "NN training requires the fact relation to declare a TARGET "
            "column (the Y attribute of Section IV)"
        )


def fit_m_nn(
    db: Database,
    spec: JoinSpec,
    config: NNConfig,
    *,
    block_pages: int = DEFAULT_BLOCK_PAGES,
    table_name: str | None = None,
    keep_table: bool = False,
    model: MLP | None = None,
    telemetry=None,
) -> NNFitResult:
    """Materialize-then-train baseline; wall time includes the join."""
    before = db.stats.snapshot()
    name = table_name or f"_T_{spec.fact}_mnn"
    tick = time.perf_counter()
    table = materialize_join(
        db, spec, name, block_pages=block_pages, replace=True
    )
    materialize_seconds = time.perf_counter() - tick
    table_pages = table.npages
    try:
        access = MaterializedTable(
            table,
            block_pages=block_pages,
            shuffle=config.shuffle,
            seed=config.seed,
        )
        _check_has_target(access.has_target)
        engine = DenseNNEngine(
            access,
            model or build_model(table.schema.num_features, config),
        )
        result = run_training(
            engine, config, algorithm=M_NN, telemetry=telemetry
        )
    finally:
        if not keep_table:
            db.drop_relation(name, missing_ok=True)
    result.wall_time_seconds += materialize_seconds
    result.extra["materialize_seconds"] = materialize_seconds
    result.extra["table_pages"] = table_pages
    result.io = db.stats.snapshot() - before
    return result


def fit_s_nn(
    db: Database,
    spec: JoinSpec,
    config: NNConfig,
    *,
    block_pages: int = DEFAULT_BLOCK_PAGES,
    model: MLP | None = None,
    telemetry=None,
) -> NNFitResult:
    """Join-on-the-fly baseline — dense batches, no materialization."""
    before = db.stats.snapshot()
    access = StreamingJoin(
        db,
        spec,
        block_pages=block_pages,
        shuffle=config.shuffle,
        seed=config.seed,
    )
    _check_has_target(access.has_target)
    engine = DenseNNEngine(
        access,
        model or build_model(access.resolved.total_features, config),
    )
    result = run_training(
        engine, config, algorithm=S_NN, telemetry=telemetry
    )
    result.extra["join_index"] = access.index.publish(telemetry, S_NN)
    result.io = db.stats.snapshot() - before
    return result


def fit_f_nn(
    db: Database,
    spec: JoinSpec,
    config: NNConfig,
    *,
    block_pages: int = DEFAULT_BLOCK_PAGES,
    model: MLP | None = None,
    telemetry=None,
) -> NNFitResult:
    """The paper's factorized algorithm (Sections VI-A1/VI-A3/VI-B)."""
    before = db.stats.snapshot()
    access = FactorizedJoin(
        db,
        spec,
        block_pages=block_pages,
        shuffle=config.shuffle,
        seed=config.seed,
    )
    _check_has_target(access.has_target)
    engine = FactorizedNNEngine(
        access,
        model or build_model(access.resolved.total_features, config),
        grouped_backward=config.grouped_backward,
    )
    result = run_training(
        engine, config, algorithm=F_NN, telemetry=telemetry
    )
    result.extra["join_index"] = access.index.publish(telemetry, F_NN)
    result.io = db.stats.snapshot() - before
    return result


NN_ALGORITHMS = {
    M_NN: fit_m_nn,
    S_NN: fit_s_nn,
    F_NN: fit_f_nn,
}
