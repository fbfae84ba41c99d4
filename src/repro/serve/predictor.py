"""Exact predictors over normalized data.

A predictor binds one fitted model to a :class:`~repro.storage.catalog.
Database` + :class:`~repro.join.spec.JoinSpec` and answers requests of
the form *(fact features, foreign keys)* — the normalized shape a
serving tier actually receives — without ever materializing the join.

One predictor per model family (:class:`GMMPredictor`,
:class:`NNPredictor`) answers each request in one of two arms, the
training trio minus the training-only streaming path:

* **factorized** — gather per-RID partial results
  (:mod:`repro.serve.partials`, cached in one
  :class:`~repro.fx.sharding.ShardedPartialCache` per fingerprint,
  drawn from a :class:`~repro.fx.store.PartialStore`) and finish each
  score with fact-side work only (Eq. 19, Section VI-A1).
* **materialized** — the same request with every dimension inlined:
  wide ``[x_S | x_R1 | …]`` rows (dimension features fetched by key)
  through the same kernel, a design with no dimension relation for a
  mixture, the first layer's dense product for a network.  This is
  the baseline every serving stack uses today and the exactness oracle
  for the factorized arm, which it equals up to float summation order —
  the same invariant the training engines hold.

A predictor is built for one arm (``make_predictor(strategy=...)``);
each call may name the other through its keyword-only ``strategy=``,
which is how the serving core runs the arm its planner chose for a
batch.  Only a predictor built factorized holds partial caches.

Requests accept foreign keys as a dict ``{relation: rids}`` (the
unambiguous form), a ``(n,)`` array (binary joins), a row-major
``(n, q)`` array — nested Python lists included — or a sequence of
``q`` 1-D numpy arrays in spec order.  ``predict_all`` streams the
fact relation in storage order, so its output aligns with the
reference join oracle.

Both arms run off one :class:`~repro.fx.dedup.DedupPlan` — the
batch's ``(unique, inverse)`` FK sort, computed once.  Callers that
already hold a plan (the runtime's batch planner derives one for its
cost estimates) pass it via the keyword-only ``plan`` argument of
``predict(...)`` and no FK column is ever deduplicated twice; bare
calls build the plan internally.
"""

from __future__ import annotations

import numpy as np

from repro.core.strategies import (
    FACTORIZED,
    MATERIALIZED,
    resolve_serving_strategy,
)
from repro.errors import ModelError
from repro.fx.dedup import DedupPlan
from repro.fx.gather import (
    densify_request,
    distinct_partials,
    gather_partials,
)
from repro.gmm.model import (
    GaussianMixtureModel,
    component_log_densities,
    posteriors,
)
from repro.join.bnl import DEFAULT_BLOCK_PAGES
from repro.join.spec import JoinSpec
from repro.linalg.design import FactorizedDesign
from repro.nn.network import MLP
from repro.serve.partials import (
    DimensionLookup,
    GMMPartialBuilder,
    NNPartialBuilder,
)
from repro.storage.catalog import Database


class _RequestValidator:
    """Request normalization shared by all predictors: fact-feature and
    FK checks against the resolved join.  Alone, it is the process
    executor parent's validator, which probes no dimension: building
    it reads no dimension page."""

    def __init__(self, db: Database, spec: JoinSpec) -> None:
        self.resolved = spec.resolve(db)
        # Read once: requests are validated against it on every call,
        # and the layout is rebuilt from the schemas on each access.
        self.d_s = self.resolved.layout.sizes[0]

    @property
    def num_dimensions(self) -> int:
        return self.resolved.num_dimensions

    def _fact_features(self, features) -> np.ndarray:
        if not (type(features) is np.ndarray and features.ndim == 2
                and features.dtype == np.float64):  # else canonical already
            features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[1] != self.d_s:
            raise ModelError(
                f"fact features have width {features.shape[1]}, the fact "
                f"relation {self.resolved.fact.name!r} has {self.d_s}"
            )
        finite = np.isfinite(features)
        if np.count_nonzero(finite) != finite.size:     # half all()'s cost
            row, column = np.argwhere(~finite)[0]
            raise ModelError(
                f"fact features must be finite; row {row} holds "
                f"{features[row, column]} in column {column}"
            )
        return features

    def _rids(self, values, i: int) -> np.ndarray:
        """One dimension's foreign keys as int64 — integer dtypes and
        exactly-integral floats only: a truncated key would serve some
        other tuple's answer without a word."""
        values = np.asarray(values).ravel()
        if values.dtype.kind == "i":        # fits int64 as it is
            return values.astype(np.int64, copy=False)
        if values.dtype.kind in "uf" or not values.size:
            with np.errstate(invalid="ignore"):     # NaN/inf: caught below
                rids = values.astype(np.int64, copy=False)
            exact = rids == values
            if exact.all():
                return rids
            offending = values[~exact][0]
        else:
            offending = values[0]
        raise ModelError(
            f"foreign keys for dimension {i} "
            f"({self.resolved.dimensions[i].relation.name!r}) must be "
            f"integers, got {offending} ({values.dtype})"
        )

    def _fk_arrays(self, fk_values, n: int) -> list[np.ndarray]:
        """Normalize request foreign keys to one int64 array per dimension.

        The sequence form is a ``list``/``tuple`` of ``q`` 1-D *numpy
        arrays* in spec order — recognized by element type, never by
        shape, so no batch size can flip its meaning.  Anything else
        array-like is coerced: ``(n,)`` for binary joins, or a
        row-major ``(n, q)`` batch with one column per dimension
        (including plain nested Python lists).
        """
        q = self.num_dimensions
        if type(fk_values) in (list, tuple) and len(fk_values) == q:
            canonical = [v for v in fk_values if type(v) is np.ndarray
                         and v.dtype == np.int64 and v.shape == (n,)]
            if len(canonical) == q:     # nothing to coerce or check
                return canonical
        if isinstance(fk_values, dict):
            arrays = []
            for dim in self.resolved.dimensions:
                name = dim.relation.name
                if name not in fk_values:
                    raise ModelError(
                        f"request is missing foreign keys for {name!r}"
                    )
                arrays.append(fk_values[name])
        elif (
            isinstance(fk_values, (list, tuple))
            and len(fk_values) == q
            and all(
                isinstance(v, np.ndarray) and v.ndim == 1
                for v in fk_values
            )
        ):
            arrays = list(fk_values)
        else:
            fk_values = np.asarray(fk_values)
            if fk_values.ndim == 1 and q == 1:
                arrays = [fk_values]
            elif fk_values.ndim == 2 and fk_values.shape[1] == q:
                arrays = [fk_values[:, i] for i in range(q)]
            else:
                raise ModelError(
                    f"cannot interpret foreign keys of shape "
                    f"{fk_values.shape} for a {q}-dimension join"
                )
        out = []
        for i, array in enumerate(arrays):
            array = self._rids(array, i)
            if array.shape != (n,):
                raise ModelError(
                    f"foreign keys for dimension {i} have shape "
                    f"{array.shape}, expected ({n},)"
                )
            out.append(array)
        return out


class _ServingPredictor(_RequestValidator):
    """Request plumbing shared by both predictors: normalization,
    dimension lookups, the factorized arm's partial caches, and
    streaming over the stored fact relation.

    ``strategy`` is the arm the predictor is built for, and the default
    of every call's keyword-only ``strategy=``: ``"factorized"`` draws
    one partial cache per dimension from a
    :class:`~repro.fx.store.PartialStore`, keyed by the dimension
    relation's heap path — which pins the owning database, so stores
    shared across services never mix partials from different databases
    — plus the builder's parameter digest.  Without a caller's ``store``
    (the one-shot ``predict_gmm``/``predict_nn`` path) the predictor
    owns a private store and closes it in :meth:`close`.  A predictor
    built ``"materialized"`` acquires no cache, and a factorized call on
    it raises :class:`~repro.errors.ModelError`.
    """

    def __init__(self, db: Database, spec: JoinSpec) -> None:
        super().__init__(db, spec)
        self.lookups = [
            DimensionLookup(dim.relation, buffer_pool=db.buffer_pool)
            for dim in self.resolved.dimensions
        ]

    def _attach(self, strategy: str, builders: list, store) -> None:
        """Fix the built-for arm and, if factorized, acquire the
        caches ``builders`` fill."""
        self.strategy = resolve_serving_strategy(strategy)
        self.builders = builders
        self.caches = []
        self._store = None
        if self.strategy == MATERIALIZED:
            return
        self._owns_store = store is None
        if store is None:
            # Local import: the store hands caches *to* the serve layer
            # but also builds on serve.cache, so a module-level import
            # here would re-enter the serve package mid-bootstrap.
            from repro.fx.store import PartialStore

            store = PartialStore()
        self._store = store
        self.caches = [
            store.acquire(f"{dim.relation.heap.path}:{builder.fingerprint}")
            for dim, builder in zip(self.resolved.dimensions, builders)
        ]

    def _factorized(self, strategy: str | None) -> bool:
        """Whether a call takes the factorized arm: ``strategy``, or the
        arm this predictor was built for."""
        strategy = self.strategy if strategy is None else strategy
        if strategy == MATERIALIZED:
            return False
        if strategy != FACTORIZED:
            raise ModelError(
                f"unknown serving arm {strategy!r}; use "
                f"{FACTORIZED!r}|{MATERIALIZED!r}"
            )
        if not self.caches:
            raise ModelError(
                "a predictor built materialized holds no partial caches; "
                "it cannot answer a factorized call"
            )
        return True

    def _iter_fact_requests(self):
        """Stream the stored fact relation as (features, fks) requests."""
        fact = self.resolved.fact
        positions = [
            fact.schema.fk_position(dim.relation.name)
            for dim in self.resolved.dimensions
        ]
        for rows in fact.iter_blocks(DEFAULT_BLOCK_PAGES):
            features = fact.project_features(rows)
            fks = [rows[:, p].astype(np.int64) for p in positions]
            yield features, fks

    def _request(self, fact_features, fk_values, plan=None):
        """Normalize one request and settle its dedup plan.

        A caller-supplied ``plan`` (the runtime planner already
        deduplicated this batch) is validated for shape and reused;
        otherwise the plan is built here — either way the batch's FK
        columns are sorted exactly once.
        """
        features = self._fact_features(fact_features)
        fks = self._fk_arrays(fk_values, features.shape[0])
        if plan is None:
            plan = DedupPlan.for_batch(fks)
        elif not plan.matches(features.shape[0], len(fks)):
            raise ModelError(
                f"dedup plan describes {plan.rows} rows × "
                f"{plan.num_dimensions} dimensions, the request has "
                f"{features.shape[0]} rows × {len(fks)}"
            )
        return features, plan

    def predict_all(self) -> np.ndarray:
        """Predictions for every stored fact tuple, in storage order."""
        return np.concatenate(
            [
                self.predict(features, fks)
                for features, fks in self._iter_fact_requests()
            ],
            axis=0,
        )

    def close(self) -> None:
        """Release the caches back to the store, and close the store
        if this predictor owns it (idempotent; a no-op for a predictor
        built materialized)."""
        store, self._store = self._store, None
        if store is not None:
            for cache in self.caches:
                store.release(cache)
            if self._owns_store:
                store.close()


class NNPredictor(_ServingPredictor):
    """Serve a network's first layer factorized or materialized.

    Factorized (Section VI-A1): ``a⁽¹⁾ = x_S W_Sᵀ + Σᵢ gather(X_{R_i}
    W_{R_i}ᵀ)`` from per-RID partials, the bias ``b`` folded into the
    last dimension's; materialized: the first layer over the request's
    wide rows.  Either way everything above the first
    pre-activation is the network's training seam
    :meth:`~repro.nn.network.MLP.forward_from_first_preactivation`, so
    the two arms' outputs coincide by construction.
    """

    def __init__(
        self,
        db: Database,
        spec: JoinSpec,
        model: MLP,
        *,
        strategy: str = FACTORIZED,
        store=None,
    ) -> None:
        super().__init__(db, spec)
        if model.n_inputs != self.resolved.total_features:
            raise ModelError(
                f"model expects {model.n_inputs} inputs, the join "
                f"produces {self.resolved.total_features} features"
            )
        self.model = model
        weight_parts = self.resolved.layout.split_columns(
            model.first_layer.weights
        )
        self._fact_weights = weight_parts[0]
        # The last dimension's partial carries the bias (a JoinSpec
        # has at least one dimension), as in training.
        *inner, last = weight_parts[1:]
        builders = [NNPartialBuilder(part) for part in inner]
        builders.append(NNPartialBuilder(last, model.first_layer.bias))
        self._attach(strategy, builders, store)

    def first_preactivations(
        self, fact_features, fk_values, *, plan=None, strategy=None
    ) -> np.ndarray:
        """``a⁽¹⁾`` for a normalized request."""
        factorized = self._factorized(strategy)
        features, plan = self._request(fact_features, fk_values, plan)
        if not factorized:
            return self.model.first_layer.forward(
                densify_request(features, self.lookups, plan)
            )
        pre = features @ self._fact_weights.T
        for partial in gather_partials(
            self.lookups, self.caches, self.builders, plan
        ):
            pre += partial
        return pre

    def predict(
        self, fact_features, fk_values, *, plan=None, strategy=None
    ) -> np.ndarray:
        """Network outputs ``(n, n_out)`` for a normalized request."""
        outputs, _ = self.model.forward_from_first_preactivation(
            self.first_preactivations(
                fact_features, fk_values, plan=plan, strategy=strategy
            )
        )
        return outputs


class GMMPredictor(_ServingPredictor):
    """Every output is a reading of one E-step call — the training
    kernel (:func:`~repro.gmm.model.posteriors`) on the request as a
    design; the arms differ only in the design they hand it.

    Factorized (Eq. 19), a request is a training batch with a cache in
    front of its dimension tables: the fact block arrives with the
    request, each dimension's table rows (and, for all but the last,
    feature rows) come from the partial cache at the plan's distinct
    RIDs, and the kernel gathers them per row tile exactly as in
    training.  Materialized, it is the wide rows as a design with no
    dimension.
    """

    def __init__(
        self,
        db: Database,
        spec: JoinSpec,
        model: GaussianMixtureModel,
        *,
        strategy: str = FACTORIZED,
        store=None,
    ) -> None:
        super().__init__(db, spec)
        if model.params.n_features != self.resolved.total_features:
            raise ModelError(
                f"model has {model.params.n_features} features, the join "
                f"produces {self.resolved.total_features}"
            )
        self.model = model
        self.params = model.params
        layout = self.resolved.layout
        self._attach(
            strategy,
            [
                GMMPartialBuilder(
                    i, layout, self.params.means, model.precisions.precisions
                )
                for i in range(1, layout.nblocks)
            ],
            store,
        )

    def _design(self, fact_features, fk_values, plan, strategy):
        """The request as ``(FactorizedDesign, quadform tables | None)``."""
        factorized = self._factorized(strategy)
        features, plan = self._request(fact_features, fk_values, plan)
        if not factorized:
            wide = densify_request(features, self.lookups, plan)
            return FactorizedDesign(wide, [], []), None
        if plan.rows == 0:
            # No row to score and no distinct RID to index: any design
            # of zero rows yields the empty outputs.
            return FactorizedDesign(features, [], []), None
        tables, blocks = zip(*(
            builder.split(rows)
            for builder, rows in zip(
                self.builders,
                distinct_partials(
                    self.lookups, self.caches, self.builders, plan
                ),
            )
        ))
        return FactorizedDesign.from_plan(features, blocks, plan), tables

    def _posteriors(self, fact_features, fk_values, plan, strategy):
        design, tables = self._design(fact_features, fk_values, plan, strategy)
        return posteriors(design, self.params, self.model.precisions, tables)

    def log_gaussians(
        self, fact_features, fk_values, *, plan=None, strategy=None
    ):
        """``(n, K)`` component log-densities ``log N(x|µ_k,Σ_k)``."""
        design, tables = self._design(fact_features, fk_values, plan, strategy)
        return component_log_densities(
            design, self.params, self.model.precisions, tables
        )

    def responsibilities(
        self, fact_features, fk_values, *, plan=None, strategy=None
    ) -> np.ndarray:
        """Posterior cluster memberships ``γ`` (Eq. 2)."""
        return self._posteriors(fact_features, fk_values, plan, strategy)[0]

    def predict(
        self, fact_features, fk_values, *, plan=None, strategy=None
    ) -> np.ndarray:
        """Hard cluster assignments for a normalized request."""
        return self.responsibilities(
            fact_features, fk_values, plan=plan, strategy=strategy
        ).argmax(axis=1)

    def score_samples(
        self, fact_features, fk_values, *, plan=None, strategy=None
    ) -> np.ndarray:
        """Per-tuple log-likelihood ``log p(x)``."""
        return self._posteriors(fact_features, fk_values, plan, strategy)[1]


# -- construction helpers ------------------------------------------------------


def coerce_gmm_model(model) -> GaussianMixtureModel:
    """Unwrap a ``GMMResult`` (or pass a bare model through)."""
    model = getattr(model, "model", model)
    if not isinstance(model, GaussianMixtureModel):
        raise ModelError(
            f"expected a GMMResult or GaussianMixtureModel, "
            f"got {type(model).__name__}"
        )
    return model


def coerce_nn_model(model) -> MLP:
    """Unwrap an ``NNResult`` (or pass a bare model through)."""
    model = getattr(model, "model", model)
    if not isinstance(model, MLP):
        raise ModelError(
            f"expected an NNResult or MLP, got {type(model).__name__}"
        )
    return model


_KINDS = {
    "gmm": (coerce_gmm_model, GMMPredictor),
    "nn": (coerce_nn_model, NNPredictor),
}


def make_predictor(
    db: Database,
    spec: JoinSpec,
    model,
    *,
    kind: str,
    strategy: str = FACTORIZED,
    store=None,
):
    """Build the predictor for ``kind`` ("gmm" | "nn"), answering in
    ``strategy``'s arm unless a call names the other.

    The single dispatch point shared by :func:`repro.core.api.predict_gmm`
    / ``predict_nn`` and the serving core
    (:class:`~repro.serve.core.ServingCore`); ``model`` may be a fit
    result or the bare fitted model.
    With ``store`` (a :class:`~repro.fx.store.PartialStore`) a
    factorized predictor draws its per-dimension caches from that store
    — sharing slabs with any fingerprint-identical model — instead of
    from a private store of its own; a materialized one acquires none.
    """
    if kind not in _KINDS:
        raise ModelError(f"unknown predictor kind {kind!r}; use 'gmm'|'nn'")
    coerce, predictor = _KINDS[kind]
    return predictor(db, spec, coerce(model), strategy=strategy, store=store)
