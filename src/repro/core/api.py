"""The high-level public API.

One-call training of nonlinear models over normalized relations, and
one-call serving of the fitted models over the same normalized data:

>>> from repro import Database, JoinSpec, fit_gmm, fit_nn
>>> spec = JoinSpec.binary("orders", "items")
>>> result = fit_gmm(db, spec, n_components=5, algorithm="factorized")
>>> clusters = result.predict(features)              # dense joined rows
>>> clusters = predict_gmm(db, spec, result)         # normalized, no join

``algorithm`` selects the training strategy by friendly name or paper
name: ``"materialized"``/``"M"``, ``"streaming"``/``"S"``, or
``"factorized"``/``"F"`` (the default — the paper's proposal).  The
serving entry points (:func:`predict_gmm`, :func:`predict_nn`,
:func:`serve`) take the same vocabulary through their ``strategy``
knob, minus the training-only ``"streaming"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.strategies import (
    AUTO,
    FACTORIZED,
    MATERIALIZED,
    STREAMING,
    resolve_strategy,
)
from repro.core.training import train
from repro.errors import ModelError
from repro.gmm.base import EMConfig, GMMFitResult
from repro.gmm.model import GaussianMixtureModel
from repro.join.bnl import DEFAULT_BLOCK_PAGES
from repro.join.spec import JoinSpec
from repro.maintain.maintainer import MaintenancePolicy, ModelMaintainer
from repro.nn.base import NNConfig, NNFitResult
from repro.nn.network import MLP
from repro.runtime.service import RuntimeConfig, ServingRuntime
from repro.serve.predictor import make_predictor
from repro.serve.service import ModelService
from repro.storage.catalog import Database
from repro.storage.iostats import IOSnapshot


@dataclass
class GMMResult:
    """A fitted mixture plus the run's bookkeeping."""

    model: GaussianMixtureModel
    fit: GMMFitResult

    @property
    def algorithm(self) -> str:
        return self.fit.algorithm

    @property
    def log_likelihood_history(self) -> list[float]:
        return self.fit.log_likelihood_history

    @property
    def wall_time_seconds(self) -> float:
        return self.fit.wall_time_seconds

    @property
    def io(self) -> IOSnapshot | None:
        return self.fit.io

    def predict(self, features):
        """Hard cluster assignments for dense joined feature rows."""
        return self.model.predict(features)


@dataclass
class NNResult:
    """A trained network plus the run's bookkeeping."""

    model: MLP
    fit: NNFitResult

    @property
    def algorithm(self) -> str:
        return self.fit.algorithm

    @property
    def loss_history(self) -> list[float]:
        return self.fit.loss_history

    @property
    def wall_time_seconds(self) -> float:
        return self.fit.wall_time_seconds

    @property
    def io(self) -> IOSnapshot | None:
        return self.fit.io

    def predict(self, features):
        """Network outputs for dense joined feature rows."""
        return self.model.predict(features)


def fit_gmm(
    db: Database,
    spec: JoinSpec,
    *,
    n_components: int = 5,
    algorithm: str = FACTORIZED,
    max_iter: int = 10,
    tol: float = 1e-4,
    reg_covar: float = 1e-6,
    seed: int = 0,
    block_pages: int = DEFAULT_BLOCK_PAGES,
    config: EMConfig | None = None,
    telemetry=None,
) -> GMMResult:
    """Train a Gaussian mixture over the star join described by ``spec``.

    Parameters mirror :class:`~repro.gmm.base.EMConfig`; pass ``config``
    directly for full control.  ``algorithm`` picks the execution
    strategy (all produce identical models; they differ in cost):
    ``"materialized"``/``"M"``, ``"streaming"``/``"S"``,
    ``"factorized"``/``"F"``, or ``"auto"``, which trains the arm the
    unified cost model predicts fastest over ``max_iter`` iterations
    (seconds fitted to the counts, pages and join blocks; never
    materialized when ``T`` would not fit the buffer pool).  The
    result's ``fit.extra`` carries the
    run's dedup bookkeeping (``dedup_ratio`` et al.), the S-/F- join
    index's counters (``join_index``) and, under ``"auto"``, what the
    cost model saw and chose (``auto``).

    >>> gmm = fit_gmm(db, spec, n_components=3, algorithm="auto")
    >>> gmm.algorithm                                # doctest: +SKIP
    'F-GMM'
    >>> clusters = predict_gmm(db, spec, gmm)    # serve it, no join
    """
    if config is None:
        config = EMConfig(
            n_components=n_components,
            max_iter=max_iter,
            tol=tol,
            reg_covar=reg_covar,
            seed=seed,
        )
    fit_result = train(
        db, spec, "gmm", algorithm, config,
        block_pages=block_pages, telemetry=telemetry,
    )
    model = GaussianMixtureModel(
        fit_result.params, reg_covar=config.reg_covar
    )
    return GMMResult(model=model, fit=fit_result)


def fit_nn(
    db: Database,
    spec: JoinSpec,
    *,
    hidden_sizes: tuple[int, ...] = (50,),
    activation: str = "sigmoid",
    algorithm: str = FACTORIZED,
    epochs: int = 10,
    learning_rate: float = 0.05,
    batch_mode: str = "per-batch",
    shuffle: bool = False,
    seed: int = 0,
    block_pages: int = DEFAULT_BLOCK_PAGES,
    config: NNConfig | None = None,
    telemetry=None,
) -> NNResult:
    """Train a neural network over the star join described by ``spec``.

    The fact relation must declare a TARGET column (the ``Y`` attribute
    of Section IV).  Parameters mirror
    :class:`~repro.nn.base.NNConfig`; pass ``config`` for full
    control.  ``algorithm`` takes the same vocabulary as
    :func:`fit_gmm`, including ``"auto"``: the arm predicted fastest
    over ``epochs`` passes.  ``fit.extra``
    carries the run's dedup bookkeeping (``dedup_ratio`` et al.), the
    S-/F- join index's counters (``join_index``) and, under
    ``"auto"``, what the cost model saw and chose (``auto``).

    >>> nn = fit_nn(db, spec, hidden_sizes=(50,), epochs=5)
    >>> nn.fit.extra["dedup_ratio"]              # doctest: +SKIP
    20.0
    >>> outputs = predict_nn(db, spec, nn, xs, fks)
    """
    if config is None:
        config = NNConfig(
            hidden_sizes=tuple(hidden_sizes),
            activation=activation,
            epochs=epochs,
            learning_rate=learning_rate,
            batch_mode=batch_mode,
            shuffle=shuffle,
            seed=seed,
        )
    fit_result = train(
        db, spec, "nn", algorithm, config,
        block_pages=block_pages, telemetry=telemetry,
    )
    return NNResult(model=fit_result.model, fit=fit_result)


@dataclass
class StrategyComparison:
    """Side-by-side runs of all three strategies on one workload.

    >>> comparison = compare_strategies(db, spec, "gmm", config)
    >>> comparison.wall_times()                  # doctest: +SKIP
    {'materialized': 1.9, 'streaming': 1.7, 'factorized': 0.6}
    >>> comparison.speedup_of_factorized()       # doctest: +SKIP
    {'materialized': 3.2, 'streaming': 2.8}
    """

    results: dict[str, object] = field(default_factory=dict)

    def wall_times(self) -> dict[str, float]:
        return {
            name: result.wall_time_seconds
            for name, result in self.results.items()
        }

    def speedup_of_factorized(self) -> dict[str, float]:
        """Speedup of the factorized run over each baseline."""
        if FACTORIZED not in self.results:
            raise ModelError(
                "the factorized strategy was not among the runs "
                f"({sorted(self.results)}); include it in `strategies` "
                "to compute its speedup"
            )
        factorized = self.results[FACTORIZED].wall_time_seconds
        return {
            name: result.wall_time_seconds / factorized
            for name, result in self.results.items()
            if name != FACTORIZED
        }


def compare_strategies(
    db: Database,
    spec: JoinSpec,
    kind: str,
    config: EMConfig | NNConfig,
    *,
    block_pages: int = DEFAULT_BLOCK_PAGES,
    strategies: tuple[str, ...] = (MATERIALIZED, STREAMING, FACTORIZED),
) -> StrategyComparison:
    """Run one ``kind`` (``"gmm"`` / ``"nn"``) workload under several
    strategies (Fig. 3–6); results are the kind's bare fit results."""
    comparison = StrategyComparison()
    for name in strategies:
        strategy = resolve_strategy(name)
        if strategy == AUTO:
            raise ModelError(
                "'auto' resolves to a single strategy; name the "
                "concrete strategies to compare"
            )
        comparison.results[strategy] = train(
            db, spec, kind, strategy, config, block_pages=block_pages
        )
    return comparison


def _serve_once(db, spec, model, kind, fact_features, fk_values, strategy):
    """One-shot serving shared by :func:`predict_gmm`/:func:`predict_nn`."""
    predictor = make_predictor(db, spec, model, kind=kind, strategy=strategy)
    try:
        if fact_features is None and fk_values is None:
            return predictor.predict_all()
        if fact_features is None or fk_values is None:
            raise ModelError(
                "pass both fact_features and fk_values for a request "
                "batch, or neither to score every stored fact tuple"
            )
        return predictor.predict(fact_features, fk_values)
    finally:
        predictor.close()


def predict_gmm(
    db: Database,
    spec: JoinSpec,
    model,
    fact_features=None,
    fk_values=None,
    *,
    strategy: str = FACTORIZED,
):
    """Cluster assignments over normalized data — no join materialized.

    ``model`` is a :class:`GMMResult` or bare
    :class:`~repro.gmm.model.GaussianMixtureModel`.  With
    ``fact_features``/``fk_values`` given, scores that request batch;
    with both omitted, scores every stored fact tuple in storage order.
    ``strategy`` mirrors the training knob (``"materialized"`` or
    ``"factorized"``; training aliases accepted).  Each call builds a
    fresh predictor (cold partial cache) — for repeated request
    batches, register the model once via :func:`serve`.
    """
    return _serve_once(
        db, spec, model, "gmm", fact_features, fk_values, strategy
    )


def predict_nn(
    db: Database,
    spec: JoinSpec,
    model,
    fact_features=None,
    fk_values=None,
    *,
    strategy: str = FACTORIZED,
):
    """Network outputs over normalized data — no join materialized.

    Same contract as :func:`predict_gmm`, for an :class:`NNResult` or
    bare :class:`~repro.nn.network.MLP`.
    """
    return _serve_once(
        db, spec, model, "nn", fact_features, fk_values, strategy
    )


def maintain(
    db: Database,
    name: str,
    kind: str,
    spec: JoinSpec,
    model=None,
    *,
    policy: MaintenancePolicy | None = None,
    targets: tuple = (),
    em_config: EMConfig | None = None,
    nn_config: NNConfig | None = None,
    alpha: float = 1e-3,
    block_pages: int = DEFAULT_BLOCK_PAGES,
    telemetry=None,
) -> ModelMaintainer:
    """A :class:`~repro.maintain.maintainer.ModelMaintainer` over ``db``.

    Keeps ``model`` (a fit result or bare model; omitted for
    ``kind="linear"``) fresh against row changes via delta-maintained
    sufficient statistics, refitting only when the policy's drift
    bound (or an uncovered change) forces it::

        maintainer = maintain(
            db, "ratings", "gmm", spec, gmm_result,
            policy=MaintenancePolicy(refresh="batched", max_staleness=5.0),
            targets=(runtime,),
        )
        db.update_rows("users", positions, new_rows)   # delta applied
        maintainer.flush()                             # swap into targets

    ``targets`` are serving layers exposing ``swap_model`` (a
    :func:`serve` service or :func:`serve_runtime` runtime) that
    receive every refreshed fit atomically.  See
    ``docs/maintenance.md`` for the policy and exactness contract.
    """
    return ModelMaintainer(
        db, name, kind, spec, model,
        policy=policy, targets=targets, em_config=em_config,
        nn_config=nn_config, alpha=alpha,
        block_pages=block_pages, telemetry=telemetry,
    )


def serve(
    db: Database,
    *,
    memory_budget: int | None = None,
    store_tiers: tuple = (),
    telemetry=None,
) -> ModelService:
    """A :class:`~repro.serve.service.ModelService` over ``db``.

    Register fitted models once, then answer batched predict/score
    requests with per-model throughput and I/O bookkeeping::

        service = serve(db, memory_budget=64 << 20)    # 64 MiB of partials
        service.register_nn("ratings", nn_result, spec)
        outputs = service.predict("ratings", fact_features, fk_values)

    Requests run on the calling thread; :func:`serve_runtime` is the
    same service with a request queue and worker threads or processes
    in front.  Factorized models draw their partial caches from the
    service's own :class:`~repro.fx.store.PartialStore` — models with
    value-identical partials over the same join reuse one cache.
    ``memory_budget`` (bytes) installs a store-wide cap on resident
    partials across *all* registered models, enforced by cross-cache
    eviction of the globally coldest rows (sizing guidance in
    ``docs/tuning.md``); ``service.set_memory_budget`` moves it
    later.  ``store_tiers`` (requires ``memory_budget``) makes the
    governor demote cold partials down a tier ladder — ``"float32"``
    compresses in place (GMM labels stay bit-exact, scores within a
    documented bounded delta), ``"spill"`` pages them to disk exactly
    — instead of dropping them to recomputation; the per-tier
    exactness contract is tabulated in ``docs/tuning.md``.  The
    service listens for dimension-row updates
    (:meth:`Database.update_rows`) to keep its partial caches fresh;
    call ``service.close()`` to detach a service you discard before
    the database itself is closed — a closed service refuses work.
    ``telemetry`` (``True`` or a :class:`~repro.obs.Telemetry`) turns
    on per-request metrics and tracing — see
    ``docs/observability.md``.
    """
    return ModelService(
        db, memory_budget=memory_budget, store_tiers=store_tiers,
        telemetry=telemetry,
    )


def serve_runtime(
    db: Database,
    *,
    num_workers: int = 2,
    max_batch_rows: int = 2048,
    max_wait_ms: float = 2.0,
    queue_depth: int = 1024,
    memory_budget: int | None = None,
    store_tiers: tuple = (),
    executor: str = "thread",
    telemetry=None,
    telemetry_port: int | None = None,
) -> ServingRuntime:
    """A concurrent :class:`~repro.runtime.service.ServingRuntime`.

    Where :func:`serve` answers requests synchronously on the calling
    thread, this spins up ``num_workers`` workers behind a
    bounded request queue (``queue_depth``): point requests coalesce
    into micro-batches (up to ``max_batch_rows`` rows; ``max_wait_ms``
    is a ceiling on the linger for stragglers, which ends as soon as
    arrivals pause, or at once for a lone request whose model's
    arrival rate says no partner is due in time), each batch's
    strategy is planned adaptively from the inference cost model, and
    workers share one lock-guarded partial cache per fingerprint.

    ``executor`` selects the worker substrate.  ``"thread"`` (default)
    scores batches on ``num_workers`` threads — NumPy kernels and page
    reads release the GIL, Python glue does not.  ``"process"`` spawns
    ``num_workers`` worker *processes* behind the same ``num_workers``
    dispatchers: each batch goes whole to one idle worker, partial
    payloads live in each worker's private store, which the parent
    accounts and budget-governs — identical request API and true CPU
    parallelism for the Python portions of a batch.  Outputs are
    ``array_equal`` across executors whenever the batches match, GMM
    and NN alike.
    ``docs/tuning.md`` has the selection guidance.  Caches come from a
    shared :class:`~repro.fx.store.PartialStore`: fingerprint-identical
    models reuse one cache, and ``memory_budget`` (bytes) caps the
    total resident partials across every registered model — the store
    cross-cache-evicts the globally least recently used rows under
    pressure, so a
    multi-model deployment stays inside one honest bound instead of
    each model believing its own (``docs/tuning.md`` has the sizing
    arithmetic).  ``store_tiers`` (requires ``memory_budget``) turns
    that eviction into demotion down a tier ladder —
    ``("float32", "spill")`` first compresses cold partials, then
    pages them to disk — so a budget cut degrades throughput smoothly
    instead of falling off the recompute cliff; both executors honor
    it, and ``docs/tuning.md`` tabulates the per-tier exactness
    contract.  Dimension-row updates via
    :meth:`Database.update_rows` evict the affected RIDs
    automatically.  ``telemetry`` (``True`` or a
    :class:`~repro.obs.Telemetry`) turns on per-batch metrics and span
    traces; ``telemetry_port`` additionally serves ``/metrics``
    (Prometheus), ``/snapshot.json`` and ``/traces.json`` over HTTP
    (``0`` picks an ephemeral port, read it off
    ``runtime.telemetry_server.port``) and implies ``telemetry=True``
    — see ``docs/observability.md``.  Close the runtime (or use it as
    a context manager) to stop the workers::

        with serve_runtime(db, num_workers=4) as runtime:
            runtime.register_nn("ratings", nn_result, spec)
            future = runtime.submit("ratings", features, fks)
            outputs = future.result()
    """
    return ServingRuntime(
        db,
        RuntimeConfig(
            num_workers=num_workers,
            max_batch_rows=max_batch_rows,
            max_wait_ms=max_wait_ms,
            queue_depth=queue_depth,
            memory_budget=memory_budget,
            store_tiers=store_tiers,
            executor=executor,
        ),
        telemetry=telemetry,
        telemetry_port=telemetry_port,
    )
