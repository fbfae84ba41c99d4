"""The three GMM training strategies: M-GMM, S-GMM, F-GMM (Section V).

All return identical models (exact decomposition); they differ in I/O
pattern and computation reuse:

* :func:`fit_m_gmm` — Algorithm 1: join, materialize ``T``, stream it
  three times per EM iteration.
* :func:`fit_s_gmm` — same EM, but every pass re-joins on the fly.
* :func:`fit_f_gmm` — same page schedule as S-GMM, but all kernels run
  factorized, reusing per-dimension-tuple computation (binary *and*
  multi-way joins; the spec's arity decides).
"""

from __future__ import annotations

import time

from repro.gmm.base import EMConfig, GMMFitResult, run_em
from repro.gmm.engines import DenseEMEngine, FactorizedEMEngine
from repro.gmm.model import GMMParams
from repro.join.bnl import DEFAULT_BLOCK_PAGES
from repro.join.factorized import FactorizedJoin
from repro.join.materialize import MaterializedTable, materialize_join
from repro.join.spec import JoinSpec
from repro.join.stream import StreamingJoin
from repro.storage.catalog import Database

M_GMM = "M-GMM"
S_GMM = "S-GMM"
F_GMM = "F-GMM"


def fit_m_gmm(
    db: Database,
    spec: JoinSpec,
    config: EMConfig,
    *,
    block_pages: int = DEFAULT_BLOCK_PAGES,
    table_name: str | None = None,
    keep_table: bool = False,
    initial: GMMParams | None = None,
    telemetry=None,
) -> GMMFitResult:
    """Materialize-then-train baseline (Fig. 1(a), Algorithm 1).

    The reported wall time includes computing and writing the join
    result, exactly as the paper charges M-GMM for line 1 of
    Algorithm 1.
    """
    before = db.stats.snapshot()
    name = table_name or f"_T_{spec.fact}_mgmm"
    tick = time.perf_counter()
    table = materialize_join(
        db, spec, name, block_pages=block_pages, replace=True
    )
    materialize_seconds = time.perf_counter() - tick
    table_pages = table.npages
    try:
        access = MaterializedTable(table, block_pages=block_pages)
        engine = DenseEMEngine(
            access, n_features=table.schema.num_features
        )
        result = run_em(
            engine,
            config,
            algorithm=M_GMM,
            initial=initial,
            telemetry=telemetry,
        )
    finally:
        if not keep_table:
            db.drop_relation(name, missing_ok=True)
    result.wall_time_seconds += materialize_seconds
    result.extra["materialize_seconds"] = materialize_seconds
    result.extra["table_pages"] = table_pages
    result.io = db.stats.snapshot() - before
    return result


def fit_s_gmm(
    db: Database,
    spec: JoinSpec,
    config: EMConfig,
    *,
    block_pages: int = DEFAULT_BLOCK_PAGES,
    initial: GMMParams | None = None,
    telemetry=None,
) -> GMMFitResult:
    """Join-on-the-fly baseline (Fig. 1(b)) — no materialization."""
    before = db.stats.snapshot()
    access = StreamingJoin(db, spec, block_pages=block_pages)
    engine = DenseEMEngine(
        access, n_features=access.resolved.total_features
    )
    result = run_em(
        engine, config, algorithm=S_GMM, initial=initial, telemetry=telemetry
    )
    result.extra["join_index"] = access.index.publish(telemetry, S_GMM)
    result.io = db.stats.snapshot() - before
    return result


def fit_f_gmm(
    db: Database,
    spec: JoinSpec,
    config: EMConfig,
    *,
    block_pages: int = DEFAULT_BLOCK_PAGES,
    initial: GMMParams | None = None,
    telemetry=None,
) -> GMMFitResult:
    """The paper's factorized algorithm (Fig. 1(c), Sections V-B/V-C).

    Handles binary joins and multi-way star joins uniformly: the
    factorized kernels generalize over the spec's arity ``q``.
    """
    before = db.stats.snapshot()
    access = FactorizedJoin(db, spec, block_pages=block_pages)
    engine = FactorizedEMEngine(
        access, n_features=access.resolved.total_features
    )
    result = run_em(
        engine, config, algorithm=F_GMM, initial=initial, telemetry=telemetry
    )
    result.extra["join_index"] = access.index.publish(telemetry, F_GMM)
    result.io = db.stats.snapshot() - before
    return result


GMM_ALGORITHMS = {
    M_GMM: fit_m_gmm,
    S_GMM: fit_s_gmm,
    F_GMM: fit_f_gmm,
}
