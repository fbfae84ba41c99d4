"""Serving exactness: factorized predictions equal dense predictions.

The invariant mirrors the training side: the factorized predictor and
the materialized predictor must produce the same outputs as running the
fitted dense model over the materialized join — on binary *and*
multi-way star joins, for whole-table scoring and for request batches,
with pinned and with bounded partial caches.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.core.api import fit_gmm, fit_nn, predict_gmm, predict_nn, serve
from repro.data.synthetic import (
    DimensionSpec,
    StarSchemaConfig,
    generate_star,
)
from repro.errors import ModelError
from repro.fx.store import PartialStore
from repro.join.reference import nested_loop_join
from repro.nn.network import MLP
from repro.serve.predictor import GMMPredictor, NNPredictor


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture(params=["binary", "multiway"])
def fitted(request, db):
    """One fitted GMM + NN per join shape, with the dense join oracle."""
    if request.param == "binary":
        config = StarSchemaConfig.binary(
            n_s=500, n_r=25, d_s=3, d_r=5, with_target=True, seed=7
        )
    else:
        config = StarSchemaConfig(
            n_s=400,
            d_s=3,
            dimensions=(DimensionSpec(15, 4), DimensionSpec(9, 2)),
            with_target=True,
            seed=11,
        )
    star = generate_star(db, config)
    gmm = fit_gmm(db, star.spec, n_components=3, max_iter=3, seed=1)
    nn = fit_nn(db, star.spec, hidden_sizes=(8,), epochs=2, seed=1)
    oracle = nested_loop_join(db, star.spec)
    return star.spec, gmm, nn, oracle


def request_slice(db, spec, stop):
    """The first ``stop`` fact tuples as a (features, fks) request."""
    fact = spec.resolve(db).fact
    rows = fact.scan()[:stop]
    features = fact.project_features(rows)
    fks = {
        dim.relation: rows[:, fact.schema.fk_position(dim.relation)]
        .astype(np.int64)
        for dim in spec.dimensions
    }
    return features, fks


class TestGMMExactness:
    def test_predict_all_matches_dense_model(self, db, fitted):
        spec, gmm, _, oracle = fitted
        dense_labels = gmm.model.predict(oracle.design.fact_block)
        factorized = GMMPredictor(db, spec, gmm.model)
        materialized = GMMPredictor(
            db, spec, gmm.model, strategy="materialized"
        )
        np.testing.assert_array_equal(
            factorized.predict_all(), dense_labels
        )
        np.testing.assert_array_equal(
            materialized.predict_all(), dense_labels
        )

    def test_log_gaussians_match_to_float_associativity(self, db, fitted):
        spec, gmm, _, oracle = fitted
        features, fks = request_slice(db, spec, 64)
        factorized = GMMPredictor(db, spec, gmm.model)
        np.testing.assert_allclose(
            factorized.log_gaussians(features, fks),
            gmm.model.log_gaussians(oracle.design.fact_block[:64]),
            rtol=1e-9, atol=1e-9,
        )

    def test_score_samples_match(self, db, fitted):
        spec, gmm, _, oracle = fitted
        features, fks = request_slice(db, spec, 50)
        factorized = GMMPredictor(db, spec, gmm.model)
        np.testing.assert_allclose(
            factorized.score_samples(features, fks),
            gmm.model.score_samples(oracle.design.fact_block[:50]),
            rtol=1e-9, atol=1e-9,
        )

    def test_bounded_cache_is_still_exact(self, db, fitted):
        spec, gmm, _, oracle = fitted
        budget = PartialStore(capacity_floats=64)
        factorized = GMMPredictor(db, spec, gmm.model, store=budget)
        np.testing.assert_array_equal(
            factorized.predict_all(),
            gmm.model.predict(oracle.design.fact_block),
        )
        assert budget.stats().cross_evictions > 0
        factorized.close()
        factorized.close()                  # idempotent
        assert len(budget) == 0
        assert budget.stats().attachments == 0

    def test_api_strategies_agree(self, db, fitted):
        spec, gmm, _, oracle = fitted
        dense_labels = gmm.model.predict(oracle.design.fact_block)
        for strategy in ("factorized", "materialized", "F", "M"):
            np.testing.assert_array_equal(
                predict_gmm(db, spec, gmm, strategy=strategy),
                dense_labels,
            )

    def test_a_private_store_empties_on_close(self, db, fitted):
        spec, gmm, _, _ = fitted
        # Built without a store, the predictor owns a private one and
        # leaves nothing live in it once closed.
        factorized = GMMPredictor(db, spec, gmm.model)
        store = factorized._store
        assert len(store) == factorized.num_dimensions
        factorized.close()
        factorized.close()                  # idempotent
        assert len(store) == 0
        assert store.stats().attachments == 0


class TestNNExactness:
    def test_predict_all_matches_dense_model(self, db, fitted):
        spec, _, nn, oracle = fitted
        dense_outputs = nn.predict(oracle.design.fact_block)
        factorized = NNPredictor(db, spec, nn.model)
        materialized = NNPredictor(
            db, spec, nn.model, strategy="materialized"
        )
        np.testing.assert_allclose(
            factorized.predict_all(), dense_outputs,
            rtol=1e-12, atol=1e-12,
        )
        np.testing.assert_array_equal(
            materialized.predict_all(), dense_outputs
        )

    def test_request_batch_matches_whole_table_scoring(self, db, fitted):
        spec, _, nn, oracle = fitted
        features, fks = request_slice(db, spec, 40)
        factorized = NNPredictor(db, spec, nn.model)
        np.testing.assert_allclose(
            factorized.predict(features, fks),
            nn.predict(oracle.design.fact_block[:40]),
            rtol=1e-12, atol=1e-12,
        )

    def test_bounded_cache_is_still_exact(self, db, fitted):
        spec, _, nn, oracle = fitted
        budget = PartialStore(capacity_floats=64)
        factorized = NNPredictor(db, spec, nn.model, store=budget)
        np.testing.assert_allclose(
            factorized.predict_all(), nn.predict(oracle.design.fact_block),
            rtol=1e-12, atol=1e-12,
        )
        assert budget.stats().cross_evictions > 0
        factorized.close()
        factorized.close()                  # idempotent
        assert len(budget) == 0
        assert budget.stats().attachments == 0

    def test_api_strategies_agree(self, db, fitted):
        spec, _, nn, oracle = fitted
        dense_outputs = nn.predict(oracle.design.fact_block)
        np.testing.assert_allclose(
            predict_nn(db, spec, nn), dense_outputs,
            rtol=1e-12, atol=1e-12,
        )
        np.testing.assert_array_equal(
            predict_nn(db, spec, nn, strategy="materialized"),
            dense_outputs,
        )


class TestNNBiasInTheLastPartial:
    """The first-layer bias rides in the last dimension's partial rows,
    as in training: added once per distinct tuple, and part of that
    partial's fingerprint alone."""

    def test_networks_differing_in_bias_share_all_but_the_last_cache(
        self, db, multiway_star
    ):
        spec = multiway_star.spec
        nn = fit_nn(db, spec, hidden_sizes=(6,), epochs=1, seed=1)
        other = nn.model.copy()
        other.first_layer.bias += np.linspace(-0.5, 0.5, 6)
        store = PartialStore()
        predictors = [
            NNPredictor(db, spec, model, store=store)
            for model in (nn.model, other)
        ]
        first, second = predictors
        assert first.caches[0] is second.caches[0]
        assert first.caches[-1] is not second.caches[-1]
        assert len(store) == spec.num_dimensions + 1
        features, fks = request_slice(db, spec, 200)
        for predictor, model in zip(predictors, (nn.model, other)):
            materialized = predictor.predict(
                features, fks, strategy="materialized"
            )
            np.testing.assert_allclose(
                predictor.predict(features, fks), materialized,
                rtol=1e-12, atol=1e-12,
            )
            # the factorized first pre-activation carries the bias once
            np.testing.assert_allclose(
                predictor.first_preactivations(features, fks),
                predictor.first_preactivations(
                    features, fks, strategy="materialized"
                ),
                rtol=1e-12, atol=1e-12,
            )
            predictor.close()
        assert len(store) == 0

    def test_only_the_last_builder_folds_the_bias(self, db, multiway_star):
        spec = multiway_star.spec
        nn = fit_nn(db, spec, hidden_sizes=(6,), epochs=1, seed=1)
        predictor = NNPredictor(db, spec, nn.model)
        *inner, last = predictor.builders
        assert all(builder.bias is None for builder in inner)
        np.testing.assert_array_equal(last.bias, nn.model.first_layer.bias)
        features = np.random.default_rng(0).normal(
            size=(7, last.weight_block.shape[1])
        )
        np.testing.assert_array_equal(
            last.compute(features),
            features @ last.weight_block.T + nn.model.first_layer.bias,
        )
        predictor.close()


def distinct_keys_request(db, spec):
    """Fact tuples no two of which share a key in any dimension: every
    row is its own distinct RID, the planner's dense case."""
    features, fks = request_slice(db, spec, None)
    seen = [set() for _ in fks]
    rows = []
    for t in range(features.shape[0]):
        keys = [int(fk[t]) for fk in fks.values()]
        if not any(k in s for k, s in zip(keys, seen)):
            rows.append(t)
            for k, s in zip(keys, seen):
                s.add(k)
    return features[rows], {name: fk[rows] for name, fk in fks.items()}


class TestOnePredictorTwoArms:
    """An adaptive registration answers every batch with its one
    predictor in the arm the planner chose, bit for bit what a
    registration pinned to that arm answers."""

    ARMS = ("factorized", "materialized")

    def test_each_planned_batch_equals_its_pinned_arm(
        self, db, fitted, monkeypatch
    ):
        spec, gmm, nn, _ = fitted
        service = serve(db)
        for strategy in ("adaptive", *self.ARMS):
            service.register_gmm(
                f"gmm-{strategy}", gmm, spec, strategy=strategy
            )
            service.register_nn(f"nn-{strategy}", nn, spec, strategy=strategy)
        features, fks = request_slice(db, spec, 400)
        requests = [
            distinct_keys_request(db, spec),        # cold, rows = RIDs
            (features[:0], {k: v[:0] for k, v in fks.items()}),
            (features, fks),                        # ~16 rows per RID
        ]
        calls = [
            ("gmm", service.predict), ("gmm", service.score),
            ("nn", service.predict),
        ]
        chosen = {kind: set() for kind in ("gmm", "nn")}
        for request in requests:
            # the planner's own verdict, then each arm forced through it
            for forced in (None, *self.ARMS):
                for kind, call in calls:
                    planner = service.model(f"{kind}-adaptive").planner
                    if forced is not None:
                        monkeypatch.setattr(
                            planner, "plan",
                            lambda *a, plan=planner.plan, arm=forced: (
                                dataclasses.replace(plan(*a), strategy=arm)
                            ),
                        )
                    out = call(f"{kind}-adaptive", *request)
                    monkeypatch.undo()
                    stats = service.model(f"{kind}-adaptive").planner_stats
                    arm = stats.recent[-1].strategy
                    assert forced in (None, arm)
                    if forced is None:
                        chosen[kind].add(arm)
                    np.testing.assert_array_equal(
                        out, call(f"{kind}-{arm}", *request)
                    )
        # the planner's own verdicts took both arms of the network: the
        # all-distinct batch dense, the others factorized (a mixture's
        # break-even sits at or below one row per RID, so it never
        # plans dense at d_R > 1 — the forced passes cover it)
        assert chosen == {"gmm": {"factorized"}, "nn": set(self.ARMS)}
        service.close()

    def test_a_pinned_materialized_registration_holds_no_cache(
        self, db, fitted
    ):
        spec, gmm, nn, _ = fitted
        service = serve(db)
        service.register_gmm("m", gmm, spec, strategy="materialized")
        service.register_nn("n", nn, spec, strategy="M")
        features, fks = request_slice(db, spec, 50)
        service.predict("m", features, fks)
        service.predict("n", features, fks)
        assert service.cache_stats("m") == service.cache_stats("n") == []
        assert len(service.store) == 0
        service.close()

    def test_a_factorized_call_needs_the_caches(self, db, fitted):
        spec, gmm, nn, _ = fitted
        features, fks = request_slice(db, spec, 20)
        for predictor in (
            GMMPredictor(db, spec, gmm.model, strategy="materialized"),
            NNPredictor(db, spec, nn.model, strategy="M"),
        ):
            assert predictor.caches == [] and predictor._store is None
            with pytest.raises(ModelError, match="no partial caches"):
                predictor.predict(features, fks, strategy="factorized")
            with pytest.raises(ModelError, match="unknown serving arm"):
                predictor.predict(features, fks, strategy="F")
            predictor.close()                   # nothing to give back

    def test_a_factorized_predictor_answers_both_arms(self, db, fitted):
        spec, gmm, nn, oracle = fitted
        features, fks = request_slice(db, spec, 64)
        for cls, model, dense in (
            (GMMPredictor, gmm.model, gmm.model.predict),
            (NNPredictor, nn.model, nn.model.predict),
        ):
            predictor = cls(db, spec, model)
            np.testing.assert_array_equal(
                predictor.predict(features, fks, strategy="materialized"),
                dense(oracle.design.fact_block[:64]),
            )
            predictor.close()


class TestRequestForms:
    """All accepted foreign-key spellings resolve identically."""

    def test_fk_spellings_agree(self, db, multiway_star):
        spec = multiway_star.spec
        nn = fit_nn(db, spec, hidden_sizes=(4,), epochs=1, seed=1)
        predictor = NNPredictor(db, spec, nn.model)
        features, fks_dict = request_slice(db, spec, 20)
        as_list = [fks_dict[d.relation] for d in spec.dimensions]
        as_matrix = np.column_stack(as_list)
        reference = predictor.predict(features, fks_dict)
        np.testing.assert_array_equal(
            predictor.predict(features, as_list), reference
        )
        np.testing.assert_array_equal(
            predictor.predict(features, as_matrix), reference
        )

    def test_sequence_form_with_batch_size_equal_to_arity(
        self, db, multiway_star
    ):
        # A batch of exactly q rows must not be mistaken for an (n, q)
        # matrix when FKs arrive as the sequence-of-q-arrays form.
        spec = multiway_star.spec
        nn = fit_nn(db, spec, hidden_sizes=(4,), epochs=1, seed=1)
        predictor = NNPredictor(db, spec, nn.model)
        features, fks_dict = request_slice(db, spec, spec.num_dimensions)
        as_list = [fks_dict[d.relation] for d in spec.dimensions]
        np.testing.assert_array_equal(
            predictor.predict(features, as_list),
            predictor.predict(features, fks_dict),
        )
        # ... and a nested Python list is row-major (n, q), also at
        # n == q: only lists of 1-D *numpy arrays* mean sequence form.
        as_nested = np.column_stack(as_list).tolist()
        np.testing.assert_array_equal(
            predictor.predict(features, as_nested),
            predictor.predict(features, fks_dict),
        )

    def test_binary_accepts_flat_fk_array(self, db, binary_star):
        spec = binary_star.spec
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        predictor = GMMPredictor(db, spec, gmm.model)
        features, fks = request_slice(db, spec, 15)
        (flat,) = fks.values()
        np.testing.assert_array_equal(
            predictor.predict(features, flat),
            predictor.predict(features, fks),
        )

    def test_single_row_request(self, db, binary_star):
        spec = binary_star.spec
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        predictor = GMMPredictor(db, spec, gmm.model)
        features, fks = request_slice(db, spec, 1)
        labels = predictor.predict(features[0], fks)
        assert labels.shape == (1,)

    def test_empty_request_batch(self, db, binary_star):
        # A serving tier can legitimately receive an empty batch.
        spec = binary_star.spec
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        nn = fit_nn(db, spec, hidden_sizes=(4,), epochs=1, seed=1)
        no_rows = np.zeros((0, 3))
        no_keys = np.zeros(0, dtype=np.int64)
        assert GMMPredictor(db, spec, gmm.model).predict(
            no_rows, no_keys
        ).shape == (0,)
        assert NNPredictor(db, spec, nn.model).predict(
            no_rows, no_keys
        ).shape == (0, 1)


class TestValidation:
    def test_wrong_fact_width_rejected(self, db, binary_star):
        spec = binary_star.spec
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        predictor = GMMPredictor(db, spec, gmm.model)
        with pytest.raises(ModelError, match="width"):
            predictor.predict(np.zeros((4, 7)), np.zeros(4, dtype=int))

    def test_fk_length_mismatch_rejected(self, db, binary_star):
        spec = binary_star.spec
        nn = fit_nn(db, spec, hidden_sizes=(4,), epochs=1, seed=1)
        predictor = NNPredictor(db, spec, nn.model)
        with pytest.raises(ModelError, match="foreign keys"):
            predictor.predict(np.zeros((4, 3)), np.zeros(3, dtype=int))

    def test_missing_dimension_keys_rejected(self, db, multiway_star):
        spec = multiway_star.spec
        nn = fit_nn(db, spec, hidden_sizes=(4,), epochs=1, seed=1)
        predictor = NNPredictor(db, spec, nn.model)
        with pytest.raises(ModelError, match="missing foreign keys"):
            predictor.predict(
                np.zeros((2, 3)), {"R1": np.zeros(2, dtype=int)}
            )

    def test_model_join_width_mismatch_rejected(self, db, binary_star):
        # The binary_star join yields 8 features; this net expects 5.
        model = MLP((5, 4, 1))
        with pytest.raises(ModelError, match="inputs"):
            NNPredictor(db, binary_star.spec, model)

    def test_streaming_strategy_rejected_for_serving(self, db, binary_star):
        gmm = fit_gmm(
            db, binary_star.spec, n_components=2, max_iter=2, seed=1
        )
        with pytest.raises(ModelError, match="training-only"):
            predict_gmm(db, binary_star.spec, gmm, strategy="streaming")

    def test_half_specified_request_rejected(self, db, binary_star):
        gmm = fit_gmm(
            db, binary_star.spec, n_components=2, max_iter=2, seed=1
        )
        with pytest.raises(ModelError, match="both"):
            predict_gmm(db, binary_star.spec, gmm, np.zeros((2, 3)))
