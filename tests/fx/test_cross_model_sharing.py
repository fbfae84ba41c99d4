"""Cross-model partial sharing: bit-exact predictions, smaller footprint."""

import warnings

import numpy as np
import pytest

from repro.core.api import fit_gmm, fit_nn, serve, serve_runtime
from repro.errors import ModelError
from repro.fx.store import PartialStore
from repro.serve.predictor import make_predictor
from repro.serve.service import ModelService


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def a_request(db, spec, n=200):
    fact = spec.resolve(db).fact
    rows = fact.scan()[:n]
    fk = rows[:, fact.schema.fk_position("R1")].astype(np.int64)
    return fact.project_features(rows), fk


class TestServiceSharing:
    def test_same_model_twice_is_bit_exact_and_cheaper(self, db,
                                                       binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(6,), epochs=1, seed=1
        )
        features, fk = a_request(db, binary_star.spec)

        # Standalone baseline: one service — and so one private store
        # — per registration.
        base, standalone_bytes = {}, 0
        for name in ("a", "b"):
            standalone = serve(db)
            standalone.register_nn(name, nn, binary_star.spec)
            base[name] = standalone.predict(name, features, fk)
            standalone_bytes += standalone.store.bytes_resident
            standalone.close()
        base_a, base_b = base["a"], base["b"]

        shared = serve(db)
        shared.register_nn("a", nn, binary_star.spec)
        shared.register_nn("b", nn, binary_star.spec)
        out_a = shared.predict("a", features, fk)
        out_b = shared.predict("b", features, fk)

        # Bit-exact against the unshared deployment, and across names.
        np.testing.assert_array_equal(out_a, base_a)
        np.testing.assert_array_equal(out_b, base_b)
        np.testing.assert_array_equal(out_a, out_b)
        # One resident copy instead of two.
        assert shared.store.bytes_resident < standalone_bytes
        assert shared.store.bytes_resident == standalone_bytes // 2
        assert shared.store_stats().shared_attachments == 1
        shared.close()

    def test_second_sharer_is_warm_from_the_start(self, db, binary_star):
        gmm = fit_gmm(
            db, binary_star.spec, n_components=2, max_iter=2, seed=1
        )
        service = serve(db)
        service.register_gmm("a", gmm, binary_star.spec)
        service.register_gmm("b", gmm, binary_star.spec)
        features, fk = a_request(db, binary_star.spec)
        service.predict("a", features, fk)          # fills the cache
        service.predict("b", features, fk)          # rides it
        (stats,) = service.cache_stats("b")         # shared counters
        assert stats.hits > 0
        service.close()

    def test_different_models_do_not_share(self, db, binary_star):
        nn1 = fit_nn(
            db, binary_star.spec, hidden_sizes=(6,), epochs=1, seed=1
        )
        nn2 = fit_nn(
            db, binary_star.spec, hidden_sizes=(6,), epochs=1, seed=2
        )
        service = serve(db)
        service.register_nn("one", nn1, binary_star.spec)
        service.register_nn("two", nn2, binary_star.spec)
        assert len(service.store) == 2
        assert service.store_stats().shared_attachments == 0
        features, fk = a_request(db, binary_star.spec)
        out1 = service.predict("one", features, fk)
        out2 = service.predict("two", features, fk)
        assert not np.allclose(out1, out2)
        service.close()

    def test_unregister_releases_but_keeps_the_sharers_cache(
        self, db, binary_star
    ):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(6,), epochs=1, seed=1
        )
        service = serve(db)
        service.register_nn("a", nn, binary_star.spec)
        service.register_nn("b", nn, binary_star.spec)
        features, fk = a_request(db, binary_star.spec)
        expected = service.predict("a", features, fk)
        service.unregister("a")
        assert len(service.store) == 1      # "b" still holds it
        np.testing.assert_array_equal(
            service.predict("b", features, fk), expected
        )
        service.unregister("b")
        assert len(service.store) == 0
        service.close()

    def test_invalidation_with_sharing_stays_exact(self, db, binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(6,), epochs=1, seed=1
        )
        service = serve(db)
        service.register_nn("a", nn, binary_star.spec)
        service.register_nn("b", nn, binary_star.spec)
        features, fk = a_request(db, binary_star.spec)
        before = service.predict("a", features, fk)

        relation = db["R1"]
        victim = int(fk[0])
        position = relation.positions_of_keys(np.array([victim]))
        new_row = relation.scan()[position[0]].copy()
        new_row[1:] += 2.0
        db.update_rows("R1", position, new_row[None, :])

        after_a = service.predict("a", features, fk)
        after_b = service.predict("b", features, fk)
        np.testing.assert_array_equal(after_a, after_b)
        assert not np.allclose(
            before[fk == victim], after_a[fk == victim]
        )
        service.close()


class TestStoreSharedAcrossServices:
    def test_different_databases_never_share_partials(self, tmp_path):
        # Same seeds → identical schemas, relation names and fitted
        # weights; only the stored dimension rows' home differs.  A
        # store shared by predictors over the two databases must still
        # keep their partials apart (the fingerprint pins the heap path).
        from repro.data.synthetic import StarSchemaConfig, generate_star
        from repro.storage.catalog import Database

        store = PartialStore()
        predictors = []
        for i in (1, 2):
            db = Database(tmp_path / f"db{i}")
            star = generate_star(db, StarSchemaConfig.binary(
                n_s=300, n_r=10, d_s=3, d_r=4, with_target=True, seed=3,
            ))
            nn = fit_nn(db, star.spec, hidden_sizes=(4,), epochs=1,
                        seed=1)
            predictor = make_predictor(
                db, star.spec, nn, kind="nn", store=store
            )
            predictors.append((db, predictor))
        assert len(store) == 2
        assert store.stats().shared_attachments == 0
        for db, predictor in predictors:
            predictor.close()
            db.close(delete=True)

    def test_close_releases_the_stores_pins(self, db, binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        service = ModelService(db)
        service.register_nn("m", nn, binary_star.spec)
        features, fk = a_request(db, binary_star.spec)
        service.predict("m", features, fk)
        assert len(service.store) == 1
        service.close()
        service.close()                     # idempotent
        assert len(service.store) == 0      # no pinned slabs left
        # A closed service no longer hears row updates: it refuses to
        # answer rather than risk a stale one.
        with pytest.raises(ModelError, match="closed"):
            service.predict("m", features, fk)


class TestRuntimeSharing:
    def test_runtime_sharing_is_bit_exact_and_cheaper(self, db,
                                                      binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(6,), epochs=1, seed=1
        )
        features, fk = a_request(db, binary_star.spec)
        # Unshared baseline: one runtime — one private store — per
        # registration.
        base, solo_bytes = {}, 0
        for name in ("a", "b"):
            with serve_runtime(db, num_workers=2) as solo:
                solo.register_nn(name, nn, binary_star.spec,
                                 strategy="factorized")
                base[name] = solo.predict(name, features, fk)
                solo_bytes += solo.store.bytes_resident
                assert len(solo.store) == 1
        base_a = base["a"]
        with serve_runtime(db, num_workers=2) as rt:
            rt.register_nn("a", nn, binary_star.spec,
                           strategy="factorized")
            rt.register_nn("b", nn, binary_star.spec,
                           strategy="factorized")
            out_a = rt.predict("a", features, fk)
            out_b = rt.predict("b", features, fk)
            np.testing.assert_array_equal(out_a, base_a)
            np.testing.assert_array_equal(out_a, out_b)
            snapshot = rt.runtime_stats()
            assert snapshot.store.caches == 1
            assert snapshot.store.shared_attachments == 1
            assert rt.store.bytes_resident < solo_bytes
