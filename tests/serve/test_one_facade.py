"""One serving facade: what ``ServingRuntime`` inherits from
``ModelService`` behaves the same on both, and a closed facade of
either kind refuses work instead of serving answers it can no longer
keep fresh."""

import warnings

import numpy as np
import pytest

from repro.core.api import fit_gmm, fit_nn, serve, serve_runtime
from repro.errors import ModelError
from repro.fx.store import low_watermark
from repro.runtime.service import ServingRuntime
from repro.serve.service import ModelService


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture
def fits(db, binary_star):
    spec = binary_star.spec
    gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
    nn = fit_nn(db, spec, hidden_sizes=(6,), epochs=1, seed=1)
    return spec, gmm, nn


def a_request(db, spec, n=200):
    fact = spec.resolve(db).fact
    rows = fact.scan()[:n]
    fk = rows[:, fact.schema.fk_position("R1")].astype(np.int64)
    return fact.project_features(rows), fk


def update_three_r1_rows(db):
    relation = db["R1"]
    positions = np.arange(3)
    rows = relation.scan()[positions].copy()
    rows[:, 1:] += 3.0
    db.update_rows("R1", positions, rows)


FACADES = {
    "serve": serve,
    "runtime": lambda db: serve_runtime(db, num_workers=1),
}


@pytest.mark.parametrize("facade", sorted(FACADES))
class TestAClosedFacadeRefusesWork:
    """Closed, a facade no longer hears row updates; every answer it
    gave after an update would be its pre-update one."""

    def test_a_model_registered_before_close(self, db, fits, facade):
        spec, gmm, nn = fits
        service = FACADES[facade](db)
        service.register_gmm("g", gmm, spec)
        service.register_nn("n", nn, spec)
        features, fk = a_request(db, spec)
        service.predict("n", features, fk)        # warm the caches
        service.close()
        update_three_r1_rows(db)
        for name in ("g", "n"):
            with pytest.raises(ModelError, match="closed"):
                service.predict(name, features, fk)
            with pytest.raises(ModelError, match="closed"):
                service.predict_all(name)
            with pytest.raises(ModelError, match="closed"):
                service.swap_model(name, gmm if name == "g" else nn)
        with pytest.raises(ModelError, match="closed"):
            service.score("g", features, fk)

    def test_a_model_registered_after_close(self, db, fits, facade):
        spec, gmm, nn = fits
        service = FACADES[facade](db)
        service.close()
        update_three_r1_rows(db)
        with pytest.raises(ModelError, match="closed"):
            service.register_nn("n", nn, spec)
        with pytest.raises(ModelError, match="closed"):
            service.register_gmm("g", gmm, spec)
        assert service.model_names == []


class TestSetMemoryBudget:
    def test_a_warm_service_trims_to_the_watermark(self, db, fits):
        spec, gmm, _ = fits
        features, fk = a_request(db, spec, n=500)
        unbounded, bounded = serve(db), serve(db)
        for service in (unbounded, bounded):
            service.register_gmm("g", gmm, spec)
        want = unbounded.predict("g", features, fk)
        np.testing.assert_array_equal(bounded.predict("g", features, fk), want)
        resident = bounded.store.floats_resident
        budget = resident // 2 * 8                 # bytes: half the floats
        assert bounded.set_memory_budget(budget) > 0
        assert 0 < bounded.store.floats_resident <= low_watermark(
            budget // 8
        )
        assert bounded.store_stats().capacity_floats == budget // 8
        np.testing.assert_array_equal(bounded.predict("g", features, fk), want)
        assert bounded.set_memory_budget(None) == 0
        for service in (unbounded, bounded):
            service.close()

    def test_a_non_positive_budget_is_refused(self, db):
        service = serve(db)
        with pytest.raises(ModelError, match="memory_budget"):
            service.set_memory_budget(0)
        service.close()


class TestRuntimePredictAll:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_matches_serve_or_refuses(self, db, fits, executor):
        spec, gmm, nn = fits
        inline = serve(db)
        inline.register_gmm("g", gmm, spec)
        inline.register_nn("n", nn, spec)
        with serve_runtime(db, num_workers=2, executor=executor) as rt:
            rt.register_gmm("g", gmm, spec)
            rt.register_nn("n", nn, spec)
            for name in ("g", "n"):
                if executor == "process":
                    with pytest.raises(ModelError, match="predict_all"):
                        rt.predict_all(name)
                else:
                    np.testing.assert_array_equal(
                        rt.predict_all(name), inline.predict_all(name)
                    )
        inline.close()


class TestDefaultStrategy:
    def test_each_facade_keeps_its_default(self, db, fits):
        spec, _, nn = fits
        assert ModelService.DEFAULT_STRATEGY == "factorized"
        assert ServingRuntime.DEFAULT_STRATEGY == "adaptive"
        inline = serve(db)
        with serve_runtime(db, num_workers=1) as rt:
            for service in (inline, rt):
                service.register_nn("n", nn, spec)
                assert service.model("n").strategy == (
                    service.DEFAULT_STRATEGY
                )
        inline.close()

    def test_serve_accepts_adaptive_with_factorized_labels(self, db, fits):
        spec, gmm, _ = fits
        service = serve(db)
        service.register_gmm("a", gmm, spec, strategy="adaptive")
        service.register_gmm("f", gmm, spec, strategy="factorized")
        assert service.model("a").planner is not None
        for rows in (1, 2, 37, 500):
            features, fk = a_request(db, spec, n=rows)
            np.testing.assert_array_equal(
                service.predict("a", features, fk),
                service.predict("f", features, fk),
            )
        np.testing.assert_array_equal(
            service.predict_all("a"), service.predict_all("f")
        )
        service.close()
