"""Exact predictors over normalized data.

A predictor binds one fitted model to a :class:`~repro.storage.catalog.
Database` + :class:`~repro.join.spec.JoinSpec` and answers requests of
the form *(fact features, foreign keys)* — the normalized shape a
serving tier actually receives — without ever materializing the join.

Two strategies per model family, mirroring the training trio minus the
training-only streaming path:

* **materialized** — expand each request to wide ``[x_S | x_R1 | …]``
  rows (dimension features fetched by key) and run the dense model.
  This is the baseline every serving stack uses today and the exactness
  oracle for the factorized path.
* **factorized** — gather per-RID partial results
  (:mod:`repro.serve.partials`, cached in
  :class:`~repro.fx.sharding.ShardedPartialCache`\\ s drawn from a
  :class:`~repro.fx.store.PartialStore`) and finish each score with
  fact-side work only.  Output equals the materialized output up to
  float summation order — the same exactness invariant the training
  engines hold (Eq. 19, Section VI-A1).

Requests accept foreign keys as a dict ``{relation: rids}`` (the
unambiguous form), a ``(n,)`` array (binary joins), a row-major
``(n, q)`` array — nested Python lists included — or a sequence of
``q`` 1-D numpy arrays in spec order.  ``predict_all`` streams the
fact relation in storage order, so its output aligns with the
reference join oracle.

Both strategies run off one :class:`~repro.fx.dedup.DedupPlan` — the
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
from repro.fx.gather import densify_request, gather_partials
from repro.gmm.model import (
    GaussianMixtureModel,
    log_gaussian_from_quadform,
    log_responsibilities,
)
from repro.join.bnl import DEFAULT_BLOCK_PAGES
from repro.join.spec import JoinSpec
from repro.nn.network import MLP
from repro.serve.partials import (
    DimensionLookup,
    GMMPartialBuilder,
    NNPartialBuilder,
)
from repro.storage.catalog import Database


class _ServingPredictor:
    """Request plumbing shared by all predictors: FK normalization,
    dimension lookups, and streaming over the stored fact relation."""

    def __init__(
        self,
        db: Database,
        spec: JoinSpec,
        *,
        block_pages: int = DEFAULT_BLOCK_PAGES,
    ) -> None:
        self.resolved = spec.resolve(db)
        # Read once: requests are validated against it on every call,
        # and the layout is rebuilt from the schemas on each access.
        self.d_s = self.resolved.layout.sizes[0]
        self.block_pages = block_pages
        self.lookups = [
            DimensionLookup(dim.relation, buffer_pool=db.buffer_pool)
            for dim in self.resolved.dimensions
        ]

    @property
    def num_dimensions(self) -> int:
        return self.resolved.num_dimensions

    def _fact_features(self, fact_features) -> np.ndarray:
        features = np.atleast_2d(
            np.asarray(fact_features, dtype=np.float64)
        )
        if features.shape[1] != self.d_s:
            raise ModelError(
                f"fact features have width {features.shape[1]}, the fact "
                f"relation {self.resolved.fact.name!r} has {self.d_s}"
            )
        return features

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
            array = np.asarray(array).ravel().astype(np.int64)
            if array.shape != (n,):
                raise ModelError(
                    f"foreign keys for dimension {i} have shape "
                    f"{array.shape}, expected ({n},)"
                )
            out.append(array)
        return out

    def _iter_fact_requests(self):
        """Stream the stored fact relation as (features, fks) requests."""
        fact = self.resolved.fact
        positions = [
            fact.schema.fk_position(dim.relation.name)
            for dim in self.resolved.dimensions
        ]
        for rows in fact.iter_blocks(self.block_pages):
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
        """Give partial caches back to their store (a no-op here: only
        the factorized predictors hold any)."""

    # -- dense expansion (the materialized strategy) -----------------------

    def _densify_request(
        self, features: np.ndarray, plan: DedupPlan
    ) -> np.ndarray:
        return densify_request(features, self.lookups, plan)


def _normalize_cache_entries(
    num_dimensions: int, cache_entries
) -> list[int | None]:
    """One capacity per dimension from an int / per-dimension list."""
    if cache_entries is None or isinstance(cache_entries, int):
        return [cache_entries] * num_dimensions
    entries = list(cache_entries)
    if len(entries) != num_dimensions:
        raise ModelError(
            f"got {len(entries)} cache capacities for "
            f"{num_dimensions} dimensions"
        )
    return entries


# -- neural networks ----------------------------------------------------------


class _FactorizedCacheMixin:
    """Partial-cache wiring shared by the factorized predictors.

    Caches always come from a :class:`~repro.fx.store.PartialStore`,
    keyed per dimension by the dimension relation's heap path — which
    pins the owning database, so stores shared across services never
    mix partials from different databases — plus the builder's
    parameter digest.  Without a caller's ``store`` (the one-shot
    ``predict_gmm``/``predict_nn`` path) the predictor owns a private
    store and closes it in :meth:`close`.
    """

    def _setup_caches(self, cache_entries, cache_floats, store) -> None:
        self.fingerprints = [
            f"{dim.relation.heap.path}:{builder.fingerprint}"
            for dim, builder in zip(
                self.resolved.dimensions, self.builders
            )
        ]
        self._owns_store = store is None
        if store is None:
            # Local import: the store hands caches *to* the serve layer
            # but also builds on serve.cache, so a module-level import
            # here would re-enter the serve package mid-bootstrap.
            from repro.fx.store import PartialStore

            store = PartialStore()
        self._store = store
        entries = _normalize_cache_entries(
            self.num_dimensions, cache_entries
        )
        self.caches = []
        try:
            for fingerprint, e in zip(self.fingerprints, entries):
                self.caches.append(
                    store.acquire(
                        fingerprint, capacity=e,
                        capacity_floats=cache_floats,
                    )
                )
        except BaseException:
            # A mid-way failure (e.g. a bounds conflict on a later
            # dimension's fingerprint) must give back the refs already
            # taken, or those caches would stay pinned in the store
            # forever.
            for cache in self.caches:
                store.release(cache)
            self.caches = []
            raise

    def _gathered_partials(self, plan: DedupPlan) -> list[np.ndarray]:
        return gather_partials(self.lookups, self.caches, self.builders, plan)

    def close(self) -> None:
        """Release the caches back to the store, and close the store
        if this predictor owns it (idempotent)."""
        store, self._store = self._store, None
        if store is not None:
            for cache in self.caches:
                store.release(cache)
            if self._owns_store:
                store.close()


class MaterializedNNPredictor(_ServingPredictor):
    """Dense serving baseline: expand each request, run the full model."""

    strategy = "materialized"

    def __init__(
        self,
        db: Database,
        spec: JoinSpec,
        model: MLP,
        *,
        block_pages: int = DEFAULT_BLOCK_PAGES,
    ) -> None:
        super().__init__(db, spec, block_pages=block_pages)
        if model.n_inputs != self.resolved.total_features:
            raise ModelError(
                f"model expects {model.n_inputs} inputs, the join "
                f"produces {self.resolved.total_features} features"
            )
        self.model = model

    def predict(self, fact_features, fk_values, *, plan=None) -> np.ndarray:
        """Network outputs ``(n, n_out)`` for a normalized request."""
        features, plan = self._request(fact_features, fk_values, plan)
        return self.model.predict(self._densify_request(features, plan))


class FactorizedNNPredictor(_FactorizedCacheMixin, _ServingPredictor):
    """Serve the first layer from per-RID partials (Section VI-A1).

    ``a⁽¹⁾ = x_S W_Sᵀ + Σᵢ gather(X_{R_i} W_{R_i}ᵀ) + b``; everything
    above the first pre-activation reuses the network's training seam
    :meth:`~repro.nn.network.MLP.forward_from_first_preactivation`, so
    the factorized and dense outputs coincide by construction.
    """

    strategy = "factorized"

    def __init__(
        self,
        db: Database,
        spec: JoinSpec,
        model: MLP,
        *,
        cache_entries: int | list[int] | None = None,
        cache_floats: int | None = None,
        store=None,
        block_pages: int = DEFAULT_BLOCK_PAGES,
    ) -> None:
        super().__init__(db, spec, block_pages=block_pages)
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
        self.builders = [
            NNPartialBuilder(part) for part in weight_parts[1:]
        ]
        self._setup_caches(cache_entries, cache_floats, store)

    def first_preactivations(
        self, fact_features, fk_values, *, plan=None
    ) -> np.ndarray:
        """The factorized ``a⁽¹⁾`` for a normalized request."""
        features, plan = self._request(fact_features, fk_values, plan)
        pre = features @ self._fact_weights.T
        for partial in self._gathered_partials(plan):
            pre += partial
        return pre + self.model.first_layer.bias

    def predict(self, fact_features, fk_values, *, plan=None) -> np.ndarray:
        """Network outputs ``(n, n_out)`` for a normalized request."""
        outputs, _ = self.model.forward_from_first_preactivation(
            self.first_preactivations(fact_features, fk_values, plan=plan)
        )
        return outputs


# -- Gaussian mixtures --------------------------------------------------------


class _GMMPredictorMixin:
    """Everything downstream of the component log-densities is shared;
    strategies differ only in how ``log N(x|µ_k,Σ_k)`` is produced."""

    def log_gaussians(self, fact_features, fk_values, *, plan=None):
        raise NotImplementedError

    def responsibilities(
        self, fact_features, fk_values, *, plan=None
    ) -> np.ndarray:
        """Posterior cluster memberships ``γ`` (Eq. 2)."""
        gamma, _ = log_responsibilities(
            self.log_gaussians(fact_features, fk_values, plan=plan),
            self.params.weights,
        )
        return gamma

    def predict(self, fact_features, fk_values, *, plan=None) -> np.ndarray:
        """Hard cluster assignments for a normalized request."""
        return self.responsibilities(
            fact_features, fk_values, plan=plan
        ).argmax(axis=1)

    def score_samples(
        self, fact_features, fk_values, *, plan=None
    ) -> np.ndarray:
        """Per-tuple log-likelihood ``log p(x)``."""
        _, log_likelihoods = log_responsibilities(
            self.log_gaussians(fact_features, fk_values, plan=plan),
            self.params.weights,
        )
        return log_likelihoods

    def score_all(self) -> np.ndarray:
        """Log-likelihoods for every stored fact tuple."""
        return np.concatenate(
            [
                self.score_samples(features, fks)
                for features, fks in self._iter_fact_requests()
            ]
        )


class MaterializedGMMPredictor(_ServingPredictor, _GMMPredictorMixin):
    """Dense serving baseline: expand each request, score wide rows."""

    strategy = "materialized"

    def __init__(
        self,
        db: Database,
        spec: JoinSpec,
        model: GaussianMixtureModel,
        *,
        block_pages: int = DEFAULT_BLOCK_PAGES,
    ) -> None:
        super().__init__(db, spec, block_pages=block_pages)
        if model.params.n_features != self.resolved.total_features:
            raise ModelError(
                f"model has {model.params.n_features} features, the join "
                f"produces {self.resolved.total_features}"
            )
        self.model = model
        self.params = model.params

    def log_gaussians(self, fact_features, fk_values, *, plan=None):
        features, plan = self._request(fact_features, fk_values, plan)
        return self.model.log_gaussians(
            self._densify_request(features, plan)
        )


class FactorizedGMMPredictor(
    _FactorizedCacheMixin, _ServingPredictor, _GMMPredictorMixin
):
    """Score the mixture from per-RID quadratic-form partials (Eq. 19).

    Per component, the quadratic form splits into the UL fact-block
    term (per request row), the gathered LR scalar and UR+LL cross
    vector (per distinct RID), and — multi-way joins — gathered
    dimension-dimension couplings.  Log-dets and mixing weights never
    touch the data, exactly as in training.
    """

    strategy = "factorized"

    def __init__(
        self,
        db: Database,
        spec: JoinSpec,
        model: GaussianMixtureModel,
        *,
        cache_entries: int | list[int] | None = None,
        cache_floats: int | None = None,
        store=None,
        block_pages: int = DEFAULT_BLOCK_PAGES,
    ) -> None:
        super().__init__(db, spec, block_pages=block_pages)
        if model.params.n_features != self.resolved.total_features:
            raise ModelError(
                f"model has {model.params.n_features} features, the join "
                f"produces {self.resolved.total_features}"
            )
        self.model = model
        self.params = model.params
        layout = self.resolved.layout
        precisions = model.precisions
        self._log_dets = precisions.log_dets
        self._mean_fact = [
            layout.split_vector(self.params.means[k])[0]
            for k in range(self.params.n_components)
        ]
        self._prec_fact = [
            layout.split_matrix(precisions.precisions[k])[0][0]
            for k in range(self.params.n_components)
        ]
        self.builders = [
            GMMPartialBuilder(
                i, layout, self.params.means, precisions.precisions
            )
            for i in range(1, layout.nblocks)
        ]
        self._setup_caches(cache_entries, cache_floats, store)

    def log_gaussians(self, fact_features, fk_values, *, plan=None):
        features, plan = self._request(fact_features, fk_values, plan)
        gathered = self._gathered_partials(plan)
        n = features.shape[0]
        d = self.resolved.total_features
        out = np.empty((n, self.params.n_components))
        for k in range(self.params.n_components):
            fact_centered = features - self._mean_fact[k]
            quad = np.einsum(
                "ni,ij,nj->n",
                fact_centered,
                self._prec_fact[k],
                fact_centered,
                optimize=True,
            )
            for i, (builder, rows) in enumerate(
                zip(self.builders, gathered), start=1
            ):
                slab = builder.component_slab(rows, k)
                quad += slab[:, builder.lr_offset]
                quad += np.einsum(
                    "ns,ns->n",
                    fact_centered,
                    slab[:, builder.cross_fact_slice],
                    optimize=True,
                )
                for j in range(i + 1, self.num_dimensions + 1):
                    other = self.builders[j - 1].component_slab(
                        gathered[j - 1], k
                    )
                    quad += np.einsum(
                        "nd,nd->n",
                        slab[:, builder.cross_dim_slice(j)],
                        other[:, self.builders[j - 1].centered_slice],
                        optimize=True,
                    )
            out[:, k] = log_gaussian_from_quadform(
                quad, self._log_dets[k], d
            )
        return out


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


_COERCERS = {"gmm": coerce_gmm_model, "nn": coerce_nn_model}
_PREDICTORS = {
    ("gmm", FACTORIZED): FactorizedGMMPredictor,
    ("gmm", MATERIALIZED): MaterializedGMMPredictor,
    ("nn", FACTORIZED): FactorizedNNPredictor,
    ("nn", MATERIALIZED): MaterializedNNPredictor,
}


def check_cache_bounds(strategy: str, cache_entries, cache_floats) -> None:
    """Reject cache capacities on a model with no factorized side."""
    if strategy == MATERIALIZED and (
        cache_entries is not None or cache_floats is not None
    ):
        raise ModelError(
            "cache_entries/cache_floats apply to the factorized "
            "strategy only; the materialized path keeps no "
            "partials to cache"
        )


def make_predictor(
    db: Database,
    spec: JoinSpec,
    model,
    *,
    kind: str,
    strategy: str = FACTORIZED,
    cache_entries: int | list[int] | None = None,
    cache_floats: int | None = None,
    store=None,
    block_pages: int = DEFAULT_BLOCK_PAGES,
):
    """Build the predictor for ``kind`` ("gmm" | "nn") and ``strategy``.

    The single dispatch point shared by :func:`repro.core.api.predict_gmm`
    / ``predict_nn`` and the serving core
    (:class:`~repro.serve.core.ServingCore`); ``model`` may be a fit
    result or the bare fitted model.
    With ``store`` (a :class:`~repro.fx.store.PartialStore`) the
    factorized predictor draws its per-dimension caches from that store
    — sharing slabs with any fingerprint-identical model — instead of
    from a private store of its own.
    """
    if kind not in _COERCERS:
        raise ModelError(f"unknown predictor kind {kind!r}; use 'gmm'|'nn'")
    strategy = resolve_serving_strategy(strategy)
    model = _COERCERS[kind](model)
    check_cache_bounds(strategy, cache_entries, cache_floats)
    if strategy == MATERIALIZED:
        return _PREDICTORS[kind, strategy](
            db, spec, model, block_pages=block_pages
        )
    return _PREDICTORS[kind, strategy](
        db, spec, model, cache_entries=cache_entries,
        cache_floats=cache_floats, store=store, block_pages=block_pages,
    )
