"""ModelService: registration, serving, and bookkeeping."""

import warnings

import numpy as np
import pytest

from repro.core.api import fit_gmm, fit_nn, serve
from repro.errors import ModelError
from repro.serve.predictor import GMMPredictor, NNPredictor
from repro.serve.service import ModelService
from repro.storage.iostats import IOSnapshot


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture
def served(db, binary_star):
    gmm = fit_gmm(db, binary_star.spec, n_components=2, max_iter=2, seed=1)
    nn = fit_nn(db, binary_star.spec, hidden_sizes=(6,), epochs=1, seed=1)
    service = serve(db)
    service.register_gmm("clusters", gmm, binary_star.spec)
    service.register_nn("ratings", nn, binary_star.spec)
    return service, binary_star.spec, gmm, nn


def a_request(db, spec, n=30):
    fact = spec.resolve(db).fact
    rows = fact.scan()[:n]
    fk = rows[:, fact.schema.fk_position("R1")].astype(np.int64)
    return fact.project_features(rows), fk


class TestRegistration:
    def test_register_binds_the_right_predictors(self, served):
        service, _, _, _ = served
        assert service.model_names == ["clusters", "ratings"]
        clusters = service.model("clusters").predictor
        ratings = service.model("ratings").predictor
        assert isinstance(clusters, GMMPredictor)
        assert isinstance(ratings, NNPredictor)
        assert clusters.strategy == ratings.strategy == "factorized"

    def test_strategy_knob_and_aliases(self, db, binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        service = ModelService(db)
        service.register_nn("m", nn, binary_star.spec, strategy="M")
        predictor = service.model("m").predictor
        assert isinstance(predictor, NNPredictor)
        assert predictor.strategy == "materialized"
        assert predictor.caches == []
        assert service.model("m").strategy == "materialized"

    def test_streaming_strategy_rejected(self, db, binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        with pytest.raises(ModelError, match="training-only"):
            ModelService(db).register_nn(
                "s", nn, binary_star.spec, strategy="streaming"
            )

    def test_bare_models_accepted(self, db, binary_star):
        gmm = fit_gmm(
            db, binary_star.spec, n_components=2, max_iter=2, seed=1
        )
        service = ModelService(db)
        service.register_gmm("bare", gmm.model, binary_star.spec)
        assert "bare" in service

    def test_wrong_model_kind_rejected(self, db, binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        with pytest.raises(ModelError, match="GMMResult"):
            ModelService(db).register_gmm("oops", nn, binary_star.spec)

    def test_duplicate_name_rejected(self, served, db):
        service, spec, gmm, _ = served
        with pytest.raises(ModelError, match="already registered"):
            service.register_gmm("clusters", gmm, spec)

    def test_unregister(self, served):
        service, _, _, _ = served
        service.unregister("clusters")
        assert "clusters" not in service
        with pytest.raises(ModelError, match="no model"):
            service.unregister("clusters")

    def test_unknown_model_rejected(self, served):
        service, _, _, _ = served
        with pytest.raises(ModelError, match="no registered model"):
            service.predict("nope", np.zeros((1, 3)), np.zeros(1, int))


class TestServing:
    def test_predict_matches_direct_predictor(self, served, db):
        service, spec, gmm, nn = served
        features, fk = a_request(db, spec)
        np.testing.assert_array_equal(
            service.predict("clusters", features, fk),
            GMMPredictor(db, spec, gmm.model).predict(
                features, fk
            ),
        )
        np.testing.assert_allclose(
            service.predict("ratings", features, fk),
            NNPredictor(db, spec, nn.model).predict(features, fk),
            rtol=1e-12, atol=1e-12,
        )

    def test_predict_all_scores_every_fact_tuple(self, served, db):
        service, spec, _, _ = served
        labels = service.predict_all("clusters")
        assert labels.shape == (spec.resolve(db).fact.nrows,)

    def test_score_is_gmm_only(self, served, db):
        service, spec, gmm, _ = served
        features, fk = a_request(db, spec)
        scores = service.score("clusters", features, fk)
        assert scores.shape == (features.shape[0],)
        with pytest.raises(ModelError, match="score"):
            service.score("ratings", features, fk)


class TestInvalidation:
    def test_dimension_update_evicts_and_next_predict_is_fresh(
        self, db, binary_star
    ):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(6,), epochs=1, seed=1
        )
        service = ModelService(db)
        service.register_nn("n", nn, binary_star.spec)
        fact = binary_star.spec.resolve(db).fact
        rows = fact.scan()[:40]
        features = fact.project_features(rows)
        fks = rows[:, fact.schema.fk_position("R1")].astype(np.int64)
        before = service.predict("n", features, fks)

        relation = db["R1"]
        victim = int(fks[0])
        position = relation.positions_of_keys(np.array([victim]))
        new_row = relation.scan()[position[0]].copy()
        new_row[1:] += 5.0
        db.update_rows("R1", position, new_row[None, :])
        (cache_stats,) = service.cache_stats("n")
        assert cache_stats.invalidations == 1

        after = service.predict("n", features, fks)
        oracle = NNPredictor(
            db, binary_star.spec, nn.model, strategy="materialized"
        ).predict(features, fks)
        np.testing.assert_allclose(after, oracle, rtol=1e-9, atol=1e-9)
        assert not np.allclose(before[fks == victim], after[fks == victim])

    def test_dropped_service_is_garbage_collectable(self, db, binary_star):
        # The event subscription must not pin a service the caller
        # discarded without close(): only a weakref shim stays behind.
        import gc
        import weakref

        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        service = ModelService(db)
        service.register_nn("n", nn, binary_star.spec)
        ref = weakref.ref(service)
        del service
        gc.collect()
        assert ref() is None
        # ... and an update after collection is a harmless no-op.
        relation = db["R1"]
        row = relation.scan()[0].copy()
        db.update_rows(
            "R1", np.array([0]), row[None, :]
        )

    def test_failing_subscriber_does_not_starve_later_ones(
        self, db, binary_star
    ):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )

        def bad_listener(event):
            raise RuntimeError("listener bug")

        db.subscribe(bad_listener)   # registered before the service
        service = ModelService(db)
        service.register_nn("n", nn, binary_star.spec)
        fact = binary_star.spec.resolve(db).fact
        rows = fact.scan()[:10]
        features = fact.project_features(rows)
        fks = rows[:, fact.schema.fk_position("R1")].astype(np.int64)
        service.predict("n", features, fks)   # warm the cache

        relation = db["R1"]
        position = relation.positions_of_keys(np.array([int(fks[0])]))
        row = relation.scan()[position[0]].copy()
        row[1:] += 1.0
        with pytest.raises(RuntimeError, match="listener bug"):
            db.update_rows("R1", position, row[None, :])
        # The write landed and the service still heard about it.
        assert db.row_version("R1") == 1
        assert service.cache_stats("n")[0].invalidations == 1

    def test_close_detaches_from_update_notifications(
        self, db, binary_star
    ):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        service = ModelService(db)
        service.register_nn("n", nn, binary_star.spec)
        fact = binary_star.spec.resolve(db).fact
        rows = fact.scan()[:10]
        features = fact.project_features(rows)
        fks = rows[:, fact.schema.fk_position("R1")].astype(np.int64)
        service.predict("n", features, fks)
        service.close()
        service.close()   # idempotent
        relation = db["R1"]
        position = relation.positions_of_keys(np.array([int(fks[0])]))
        db.update_rows("R1", position, relation.scan()[position[0]][None, :])
        assert service.cache_stats("n")[0].invalidations == 0


class TestServingStatsGuard:
    def test_sub_resolution_durations_cannot_zero_wall_time(self):
        from repro.serve.service import ServingStats

        stats = ServingStats()
        for _ in range(1000):
            stats.record(10, 0.0)   # faster than the clock can see
        assert stats.wall_seconds > 0
        assert stats.rows == 10_000
        assert np.isfinite(stats.rows_per_second)

    def test_measurable_durations_accumulate_unclamped(self):
        from repro.serve.service import ServingStats

        stats = ServingStats()
        stats.record(100, 0.5)
        stats.record(100, 0.25)
        assert stats.wall_seconds == pytest.approx(0.75)
        assert stats.rows_per_second == pytest.approx(200 / 0.75)

    def test_record_accumulates_io(self):
        from repro.serve.service import ServingStats

        stats = ServingStats()
        stats.record(1, 0.1, IOSnapshot(pages_read=3))
        stats.record(1, 0.1, IOSnapshot(pages_read=4))
        assert stats.io.pages_read == 7


class TestBookkeeping:
    def test_stats_accumulate_per_model(self, served, db):
        service, spec, _, _ = served
        features, fk = a_request(db, spec, n=20)
        service.predict("clusters", features, fk)
        service.predict("clusters", features, fk)
        stats = service.stats("clusters")
        assert stats.requests == 2
        assert stats.rows == 40
        assert stats.wall_seconds > 0
        assert stats.rows_per_second > 0
        # The other model's counters are untouched.
        assert service.stats("ratings").requests == 0

    def test_io_attributed_to_the_serving_model(self, db, binary_star):
        gmm = fit_gmm(
            db, binary_star.spec, n_components=2, max_iter=2, seed=1
        )
        db.buffer_pool.clear()  # cold pages: the request must pay reads
        service = ModelService(db)
        service.register_gmm("clusters", gmm, binary_star.spec)
        features, fk = a_request(db, binary_star.spec)
        service.predict("clusters", features, fk)
        io = service.stats("clusters").io
        assert isinstance(io, IOSnapshot)
        assert io.pages_read > 0
        assert "R1" in io.reads_by_relation

    def test_cache_stats_exposed_for_factorized_models(self, served, db):
        service, spec, _, _ = served
        features, fk = a_request(db, spec)
        service.predict("ratings", features, fk)
        service.predict("ratings", features, fk)
        (cache,) = service.cache_stats("ratings")
        assert cache.misses > 0
        assert cache.hits >= cache.misses  # second request fully warm

    def test_telemetry_exports_the_cache_series(self, db, binary_star):
        """The inline service samples the same per-model cache series
        the runtimes do — from the core that owns the numbers."""
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        service = serve(db, telemetry=True)
        service.register_nn("ratings", nn, binary_star.spec)
        features, fk = a_request(db, binary_star.spec)
        service.predict("ratings", features, fk)
        service.predict("ratings", features, fk)
        (cache,) = service.cache_stats("ratings")
        assert cache.hits > 0
        snapshot = service.telemetry.snapshot()
        labels = {"model": "ratings", "dimension": "R1"}
        for series, expected in (
            ("repro_cache_hits_total", cache.hits),
            ("repro_cache_misses_total", cache.misses),
            ("repro_cache_rows_resident", cache.entries),
            ("repro_cache_bytes_resident", cache.bytes_resident),
        ):
            assert snapshot.value(series, **labels) == expected
        assert (
            snapshot.value("repro_store_bytes_resident")
            == service.store_stats().bytes_resident
        )
        service.close()

    def test_telemetry_samples_the_request_book(self, db, binary_star):
        """Calls served on the caller's thread are counted by model
        and op, and timed once each by model."""
        gmm = fit_gmm(
            db, binary_star.spec, n_components=2, max_iter=2, seed=1
        )
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        service = serve(db, telemetry=True)
        service.register_gmm("clusters", gmm, binary_star.spec)
        service.register_nn("ratings", nn, binary_star.spec)
        features, fk = a_request(db, binary_star.spec, n=8)
        for _ in range(3):
            service.predict("clusters", features, fk)
        for _ in range(2):
            service.score("clusters", features, fk)
        service.predict("ratings", features, fk)
        snapshot = service.telemetry.snapshot()
        for model, op, expected in (
            ("clusters", "predict", 3),
            ("clusters", "score", 2),
            ("ratings", "predict", 1),
        ):
            assert snapshot.value(
                "repro_service_requests_total", model=model, op=op
            ) == expected
        assert snapshot.get(
            "repro_service_requests_total", default=None,
            model="ratings", op="score",
        ) is None
        for model in ("clusters", "ratings"):
            seconds = snapshot.value(
                "repro_service_request_seconds", model=model
            )
            assert seconds.count == service.stats(model).requests
            assert seconds.sum > 0
        service.close()

    def test_a_failed_call_is_not_booked(self, db, binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        service = serve(db, telemetry=True)
        service.register_nn("ratings", nn, binary_star.spec)
        features, fk = a_request(db, binary_star.spec, n=4)
        service.predict("ratings", features, fk)
        with pytest.raises(ModelError):                 # dangling FK
            service.predict("ratings", features, fk * 0 + 10**6)
        snapshot = service.telemetry.snapshot()
        assert snapshot.value(
            "repro_service_requests_total", model="ratings", op="predict"
        ) == 1
        assert snapshot.value(
            "repro_service_request_seconds", model="ratings"
        ).count == service.stats("ratings").requests == 1
        service.close()

    def test_materialized_models_have_no_caches(self, db, binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        service = ModelService(db)
        service.register_nn(
            "m", nn, binary_star.spec, strategy="materialized"
        )
        assert service.cache_stats("m") == []


class TestTheRelationsKeyIndex:
    """Predictors resolve RIDs through ``Relation.key_index``: a
    predictor built before an append serves the appended rows, and a
    new predictor over an indexed relation reads none of its pages."""

    def test_a_predictor_registered_before_an_append_serves_it(
        self, db, binary_star
    ):
        spec = binary_star.spec
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        nn = fit_nn(db, spec, hidden_sizes=(6,), epochs=1, seed=1)
        early = serve(db)
        early.register_gmm("g", gmm, spec)
        early.register_nn("n", nn, spec)
        features, fk = a_request(db, spec)
        early.predict("g", features, fk)           # caches the old RIDs
        early.predict("n", features, fk)

        relation = db["R1"]
        stored = relation.scan()
        at = relation.schema.key_position
        new = stored[:2].copy()
        new[:, at] = stored[:, at].max() + 1 + np.arange(2)
        new[:, 1:] += 1.5
        db.append_rows("R1", new)
        fk = fk.copy()
        fk[::3] = new[np.arange(fk[::3].size) % 2, at]

        late = serve(db)
        late.register_gmm("g", gmm, spec)
        late.register_nn("n", nn, spec)
        for name in ("g", "n"):
            np.testing.assert_array_equal(
                early.predict(name, features, fk),
                late.predict(name, features, fk),
            )

    @pytest.mark.parametrize("kind", ["gmm", "nn"])
    def test_a_swap_reads_no_dimension_page(self, db, multiway_star, kind):
        spec = multiway_star.spec
        dims = [dim.relation for dim in spec.dimensions]
        if kind == "gmm":
            fits = [
                fit_gmm(db, spec, n_components=2, max_iter=2, seed=seed)
                for seed in (1, 2)
            ]
        else:
            fits = [
                fit_nn(db, spec, hidden_sizes=(4,), epochs=1, seed=seed)
                for seed in (1, 2)
            ]
        service = serve(db)
        getattr(service, f"register_{kind}")("m", fits[0], spec)
        before = {name: db.stats.reads_for(name) for name in dims}
        service.swap_model("m", fits[1])
        assert {name: db.stats.reads_for(name) for name in dims} == before
