"""repro — Efficient Construction of Nonlinear Models over Normalized Data.

A from-scratch Python reproduction of Cheng, Koudas, Zhang & Yu
(ICDE 2021): factorized training of Gaussian Mixture Models and Neural
Networks directly over normalized relations (binary and multi-way
PK/FK joins), together with the full substrate the paper relies on —
a paged relational storage engine with I/O accounting, three join
access paths (materialized / streaming / factorized), factorized block
linear algebra, dataset generators, and a benchmark harness
regenerating every figure and table of the paper's evaluation.  On top
of training, :mod:`repro.serve` carries the factorization to inference:
fitted models answer prediction requests directly over the normalized
relations, reusing per-distinct-dimension-tuple partial results.

Quick start — train, then serve, without ever materializing the join::

    import repro

    db = repro.Database()                       # temp-dir database
    star = repro.generate_star(
        db, repro.StarSchemaConfig.binary(
            n_s=100_000, n_r=1_000, d_s=5, d_r=15, with_target=True)
    )
    gmm = repro.fit_gmm(db, star.spec, n_components=5)
    nn = repro.fit_nn(db, star.spec, hidden_sizes=(50,))

    # One-shot serving: score every stored fact tuple, or a request
    # batch of (fact features, foreign keys) — normalized form in,
    # predictions out.
    clusters = repro.predict_gmm(db, star.spec, gmm)
    outputs = repro.predict_nn(db, star.spec, nn, xs, fks)

    # Long-lived serving: register models once, watch throughput.
    service = repro.serve(db)
    service.register_nn("ratings", nn, star.spec)
    outputs = service.predict("ratings", xs, fks)
    service.stats("ratings").rows_per_second

Concurrent serving — the same registry behind a bounded queue, a
micro-batcher that coalesces point requests, a worker pool over
shared partial caches, and a per-batch planner choosing
materialized vs factorized from the inference cost model
(:mod:`repro.runtime`).  Updates to dimension rows
(``db.update_rows``) evict the affected cached partials
automatically, so predictions always reflect the current rows::

    with repro.serve_runtime(db, num_workers=4) as runtime:
        runtime.register_nn("ratings", nn, star.spec)
        futures = [runtime.submit("ratings", x, fk)
                   for x, fk in point_requests]
        outputs = [f.result() for f in futures]
        runtime.runtime_stats()     # queue depth, batch histogram,
                                    # planner decisions, cache stats

The shared execution core (:mod:`repro.fx`) is what makes all of the
above one mechanism rather than three: every batch's foreign keys are
deduplicated exactly once into a :class:`~repro.fx.dedup.DedupPlan` —
training batches assembled by the join access paths carry their plan
into the GMM/NN engines exactly the way serving batches thread it
through ``BatchPlanner → predict()``, and every fit reports the
resulting ``dedup_ratio`` in ``result.fit.extra`` — every cost
question goes through one :class:`~repro.fx.costs.CostModel` and its
one ``decide()`` (``fit_gmm(..., algorithm="auto")`` resolves the
training strategy from its compute *and* page-I/O counts — factorized
when reuse exists, streaming when materializing the join would bind
on memory; the runtime's per-batch planner calls the same method per
batch), and cached dimension partials live in a
:class:`~repro.fx.store.PartialStore` keyed by partial fingerprint —
so two registered models with value-identical partials over the same
join share one cache instead of holding two copies::

    service = repro.serve(db)
    service.register_nn("ratings-a", nn, star.spec)
    service.register_nn("ratings-b", nn, star.spec)   # shares slabs
    service.store_stats().shared_attachments          # -> 1

Cache-sharing semantics: sharing keys on a digest of the model
parameters entering the partial computation plus the dimension
relation, so only bit-identical partials ever share; predictions are
unchanged.  Invalidation by one sharer evicts for all.  A service
that wants isolation passes its own ``PartialStore``.  Zipf-skewed FK
traffic can additionally enable TinyLFU (``cache_admission="tinylfu"``):
a count-min frequency sketch ranks the governor's victims, so one-hit
wonders are evicted before hot partials.

Memory is governed store-wide, not per cache: ``serve(db,
memory_budget=BYTES)`` / ``serve_runtime(db, memory_budget=BYTES)``
cap the *total* resident partials across every registered model, and
the store evicts the globally coldest rows across cache
boundaries under pressure — multi-model deployments degrade to
recomputation at bit-exact outputs instead of growing without bound.
The buffer pool underneath overlaps concurrent cold page reads behind
per-page in-flight guards while invalidation stays race-free.

Start with ``README.md`` for a quickstart and the package map;
``docs/architecture.md`` maps the paper's sections onto the modules
and walks one request through the runtime; ``docs/operations.md``
covers cache sizing, admission, invalidation, and every stats field;
``docs/tuning.md`` turns schema numbers into memory budgets.
"""

from repro.core.api import (
    GMMResult,
    NNResult,
    StrategyComparison,
    compare_strategies,
    fit_gmm,
    fit_nn,
    maintain,
    predict_gmm,
    predict_nn,
    serve_runtime,
)
from repro.core.strategies import (
    AUTO,
    FACTORIZED,
    MATERIALIZED,
    SERVING_STRATEGIES,
    STREAMING,
)
from repro.data.hamlet import HAMLET_PROFILES, load_hamlet, load_movies_3way
from repro.data.synthetic import (
    DimensionSpec,
    StarSchemaConfig,
    generate_star,
)
from repro.errors import (
    ConvergenceWarning,
    JoinError,
    ModelError,
    NotFittedError,
    ReproError,
    SchemaError,
    StorageError,
)
from repro.fx.costs import (
    TrainingPageProfile,
    recommend_training_strategy,
    serving_cost_model,
    training_cost_model,
)
from repro.fx.dedup import DedupCounter, DedupPlan, distinct_values
from repro.fx.sharding import ShardedPartialCache
from repro.fx.sketch import FrequencySketch
from repro.fx.store import PartialStore, StoreStats
from repro.gmm.base import EMConfig
from repro.gmm.model import GaussianMixtureModel, GMMParams
from repro.join.spec import DimensionJoin, JoinSpec
from repro.fx.statstore import StatsStore
from repro.linear.models import LinearModel, fit_logistic, fit_ridge
from repro.maintain import (
    GMMSuffStats,
    LinearSuffStats,
    MaintenancePolicy,
    ModelMaintainer,
)
from repro.nn.base import NNConfig
from repro.nn.network import MLP
from repro.obs import (
    NULL_TELEMETRY,
    MetricsRegistry,
    Span,
    Telemetry,
    TelemetryServer,
    Tracer,
    as_telemetry,
    parse_prometheus_text,
    prometheus_text,
)
from repro.runtime.service import RuntimeConfig, RuntimeStats, ServingRuntime
from repro import serve     # the subpackage; calling it is core.api.serve
from repro.serve.cache import PartialCache
from repro.serve.predictor import (
    FactorizedGMMPredictor,
    FactorizedNNPredictor,
    MaterializedGMMPredictor,
    MaterializedNNPredictor,
)
from repro.serve.service import ModelService, ServingStats
from repro.storage.catalog import Database
from repro.storage.events import RowVersionEvent
from repro.storage.schema import (
    Schema,
    feature,
    features,
    foreign_key,
    key,
    target,
)

__version__ = "1.0.0"

__all__ = [
    "AUTO",
    "ConvergenceWarning",
    "Database",
    "DedupCounter",
    "DedupPlan",
    "DimensionJoin",
    "DimensionSpec",
    "EMConfig",
    "FACTORIZED",
    "FrequencySketch",
    "FactorizedGMMPredictor",
    "FactorizedNNPredictor",
    "GMMParams",
    "GMMResult",
    "GaussianMixtureModel",
    "HAMLET_PROFILES",
    "JoinError",
    "JoinSpec",
    "GMMSuffStats",
    "LinearModel",
    "LinearSuffStats",
    "MATERIALIZED",
    "MLP",
    "MaintenancePolicy",
    "MaterializedGMMPredictor",
    "MaterializedNNPredictor",
    "MetricsRegistry",
    "ModelError",
    "ModelMaintainer",
    "ModelService",
    "NULL_TELEMETRY",
    "fit_logistic",
    "fit_ridge",
    "NNConfig",
    "NNResult",
    "NotFittedError",
    "PartialCache",
    "PartialStore",
    "ReproError",
    "RowVersionEvent",
    "RuntimeConfig",
    "RuntimeStats",
    "SERVING_STRATEGIES",
    "STREAMING",
    "Schema",
    "ServingRuntime",
    "ServingStats",
    "SchemaError",
    "ShardedPartialCache",
    "Span",
    "StarSchemaConfig",
    "StatsStore",
    "StorageError",
    "StoreStats",
    "StrategyComparison",
    "Telemetry",
    "TelemetryServer",
    "Tracer",
    "TrainingPageProfile",
    "as_telemetry",
    "compare_strategies",
    "distinct_values",
    "parse_prometheus_text",
    "prometheus_text",
    "feature",
    "features",
    "fit_gmm",
    "fit_nn",
    "foreign_key",
    "generate_star",
    "key",
    "load_hamlet",
    "load_movies_3way",
    "maintain",
    "predict_gmm",
    "predict_nn",
    "recommend_training_strategy",
    "serve",
    "serve_runtime",
    "serving_cost_model",
    "target",
    "training_cost_model",
]
