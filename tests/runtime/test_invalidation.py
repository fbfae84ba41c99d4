"""Dimension-update invalidation: row-version events evict exactly the
affected RIDs' partials from every cache, and the next prediction
reflects the new rows."""

import warnings

import numpy as np
import pytest

from repro.core.api import fit_nn, predict_nn, serve_runtime
from repro.errors import StorageError
from repro.serve.core import RegisteredModel


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture
def served(db, binary_star):
    nn = fit_nn(db, binary_star.spec, hidden_sizes=(6,), epochs=1, seed=1)
    rt = serve_runtime(db, num_workers=2, max_wait_ms=0.0)
    rt.register_nn("n", nn, binary_star.spec, strategy="factorized")
    yield rt, binary_star.spec, nn
    rt.close()


def warm_request(db, spec, n=60):
    fact = spec.resolve(db).fact
    rows = fact.scan()[:n]
    fks = rows[:, fact.schema.fk_position("R1")].astype(np.int64)
    return fact.project_features(rows), fks


def bump_dimension_row(db, rid, delta=5.0):
    """Shift one R1 row's features in place; returns the event."""
    relation = db["R1"]
    position = relation.positions_of_keys(np.array([rid]))
    row = relation.scan()[position[0]].copy()
    row[1:] += delta           # features only; the key must not change
    return db.update_rows("R1", position, row[None, :])


class TestEviction:
    def test_exactly_the_affected_rid_is_evicted(
        self, db, served
    ):
        rt, spec, _ = served
        features, fks = warm_request(db, spec)
        rt.predict("n", features, fks)
        (cache,) = rt.model("n").caches
        cached_before = {k for k in np.unique(fks).tolist() if k in cache}
        assert cached_before  # the request warmed the cache
        victim = int(fks[0])

        event = bump_dimension_row(db, victim)
        assert event.relation == "R1"
        np.testing.assert_array_equal(event.rids, [victim])
        assert event.version == 1

        assert victim not in cache
        survivors = cached_before - {victim}
        for rid in survivors:
            assert rid in cache, f"RID {rid} was collaterally evicted"
        assert rt.model("n").invalidated_rids == 1
        stats = rt.runtime_stats()
        assert stats.invalidated_rids["n"] == 1
        assert cache.stats().invalidations == 1

    def test_next_prediction_reflects_the_new_row(self, db, served):
        rt, spec, nn = served
        features, fks = warm_request(db, spec)
        before = rt.predict("n", features, fks)
        victim = int(fks[0])
        bump_dimension_row(db, victim)

        after = rt.predict("n", features, fks)
        oracle = predict_nn(
            db, spec, nn, features, fks, strategy="materialized"
        )
        np.testing.assert_allclose(after, oracle, rtol=1e-9, atol=1e-9)
        touched = fks == victim
        assert not np.allclose(after[touched], before[touched])
        np.testing.assert_allclose(
            after[~touched], before[~touched], rtol=1e-12, atol=1e-12
        )

    def test_update_to_unrelated_relation_evicts_nothing(self, db, served):
        rt, spec, _ = served
        features, fks = warm_request(db, spec)
        rt.predict("n", features, fks)
        entries_before = rt.cache_stats("n")[0].entries
        # An in-place update to the *fact* relation: no partials there.
        fact = spec.resolve(db).fact
        row = fact.scan()[0].copy()
        db.update_rows(fact.name, np.array([0]), row[None, :])
        assert rt.cache_stats("n")[0].entries == entries_before
        assert rt.model("n").invalidated_rids == 0

    def test_closed_runtime_stops_listening(self, db, binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        rt = serve_runtime(db)
        rt.register_nn("n", nn, binary_star.spec, strategy="factorized")
        features, fks = warm_request(db, binary_star.spec, n=20)
        rt.predict("n", features, fks)
        rt.close()
        bump_dimension_row(db, int(fks[0]))
        assert rt.model("n").invalidated_rids == 0


class TestConcurrentUpdates:
    def test_serving_while_updating_never_crashes_and_settles_exact(
        self, db, served
    ):
        """Dimension churn under live traffic: requests must never
        error (no torn pages, no stale-partial leaks), and once the
        churn stops predictions must match the post-update oracle."""
        import threading

        rt, spec, nn = served
        features, fks = warm_request(db, spec)
        relation = db["R1"]
        victims = np.unique(fks)[:4]
        positions = relation.positions_of_keys(victims)
        errors = []
        stop = threading.Event()

        def churn():
            try:
                for round_no in range(25):
                    rows = relation.scan()[positions].copy()
                    rows[:, 1:] += 0.1 * (round_no + 1)
                    db.update_rows("R1", positions, rows)
            except BaseException as error:  # pragma: no cover
                errors.append(error)
            finally:
                stop.set()

        def traffic():
            while not stop.is_set():
                try:
                    rt.predict("n", features, fks, timeout=30.0)
                except BaseException as error:  # pragma: no cover
                    errors.append(error)
                    return

        threads = [threading.Thread(target=churn)] + [
            threading.Thread(target=traffic) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        settled = rt.predict("n", features, fks)
        oracle = predict_nn(
            db, spec, nn, features, fks, strategy="materialized"
        )
        np.testing.assert_allclose(settled, oracle, rtol=1e-9, atol=1e-9)


class TestASwapKeepsItsInvalidations:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_an_update_between_hand_over_and_flip_counts(
        self, db, binary_star, monkeypatch, executor
    ):
        """The successor takes the books over (``continue_from``) before
        the registry flips to it: an update landing in between still
        reaches the retiring generation, and must count on the
        successor — in its record and in the sampled counter."""
        spec = binary_star.spec
        nn = fit_nn(db, spec, hidden_sizes=(6,), epochs=1, seed=1)
        with serve_runtime(
            db, num_workers=2, executor=executor, telemetry=True
        ) as rt:
            rt.register_nn("n", nn, spec, strategy="factorized")
            features, fks = warm_request(db, spec)
            rt.predict("n", features, fks)
            before = rt.telemetry.snapshot()
            hand_over = RegisteredModel.continue_from

            def hand_over_then_update(successor, predecessor):
                hand_over(successor, predecessor)
                assert rt.model("n") is predecessor      # not flipped yet
                bump_dimension_row(db, int(fks[0]))

            monkeypatch.setattr(
                RegisteredModel, "continue_from", hand_over_then_update
            )
            successor = rt.swap_model("n", nn)
            monkeypatch.undo()
            assert rt.model("n") is successor
            assert successor.invalidated_rids == 1
            window = rt.telemetry.snapshot().delta(before)
            assert window.value(
                "repro_invalidated_rids_total", model="n"
            ) == 1


class TestCatalogUpdateContract:
    def test_row_version_advances_per_update(self, db, served):
        _, spec, _ = served
        assert db.row_version("R1") == 0
        _, fks = warm_request(db, spec, n=5)
        bump_dimension_row(db, int(fks[0]))
        bump_dimension_row(db, int(fks[1]))
        assert db.row_version("R1") == 2

    def test_key_changing_update_rejected(self, db, served):
        _, spec, _ = served
        relation = db["R1"]
        row = relation.scan()[0].copy()
        row[0] += 1  # tamper with the primary key
        with pytest.raises(StorageError, match="primary-key"):
            db.update_rows("R1", np.array([0]), row[None, :])

    def test_update_persists_through_buffer_pool(self, db, served):
        rt, spec, _ = served
        features, fks = warm_request(db, spec)
        rt.predict("n", features, fks)   # pages now resident in the pool
        victim = int(fks[0])
        bump_dimension_row(db, victim, delta=3.5)
        relation = db["R1"]
        position = relation.positions_of_keys(np.array([victim]))[0]
        fresh = relation.scan()[position]
        lookup = rt.model("n").predictor.lookups[0]
        via_pool = lookup.features_for(np.array([victim]))[0]
        np.testing.assert_array_equal(
            via_pool, relation.project_features(fresh[None, :])[0]
        )
