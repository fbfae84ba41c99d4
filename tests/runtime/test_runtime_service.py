"""ServingRuntime: registration, submission, bookkeeping, lifecycle."""

import threading
import time
import warnings

import numpy as np
import pytest

from repro.core.api import fit_gmm, fit_nn, serve, serve_runtime
from repro.errors import ModelError
from repro.fx.sharding import ShardedPartialCache
from repro.runtime.service import RuntimeConfig, ServingRuntime


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture
def runtime(db, binary_star):
    gmm = fit_gmm(db, binary_star.spec, n_components=2, max_iter=2, seed=1)
    nn = fit_nn(db, binary_star.spec, hidden_sizes=(6,), epochs=1, seed=1)
    rt = serve_runtime(db, num_workers=2, max_wait_ms=1.0)
    rt.register_gmm("clusters", gmm, binary_star.spec)
    rt.register_nn("ratings", nn, binary_star.spec)
    yield rt, binary_star.spec, gmm, nn
    rt.close()


def a_request(db, spec, n=30, start=0):
    fact = spec.resolve(db).fact
    rows = fact.scan()[start:start + n]
    fk = rows[:, fact.schema.fk_position("R1")].astype(np.int64)
    return fact.project_features(rows), fk


class TestRegistration:
    def test_adaptive_models_carry_both_predictors(self, runtime):
        rt, _, _, _ = runtime
        model = rt.model("clusters")
        assert model.strategy == "adaptive"
        assert model.factorized is not None
        assert model.materialized is not None
        assert model.planner is not None

    def test_fixed_strategy_pins_one_predictor(self, db, binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        with serve_runtime(db) as rt:
            rt.register_nn("f", nn, binary_star.spec, strategy="factorized")
            rt.register_nn("m", nn, binary_star.spec, strategy="M")
            assert rt.model("f").materialized is None
            assert rt.model("f").planner is None
            assert rt.model("m").factorized is None
            assert rt.model("m").caches == []

    def test_workers_share_one_cache_per_fingerprint(self, db, binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        with serve_runtime(db, num_workers=3) as rt:
            registered = rt.register_nn("n", nn, binary_star.spec)
            (cache,) = registered.caches
            assert isinstance(cache, ShardedPartialCache)
            assert len(rt.store) == 1

    def test_streaming_rejected(self, db, binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        with serve_runtime(db) as rt:
            with pytest.raises(ModelError, match="training-only"):
                rt.register_nn("s", nn, binary_star.spec, strategy="S")

    def test_duplicate_and_unknown_names(self, runtime):
        rt, spec, gmm, _ = runtime
        with pytest.raises(ModelError, match="already registered"):
            rt.register_gmm("clusters", gmm, spec)
        with pytest.raises(ModelError, match="no registered model"):
            rt.predict("nope", np.zeros((1, 3)), np.zeros(1, int))
        rt.unregister("clusters")
        assert "clusters" not in rt
        with pytest.raises(ModelError, match="no model"):
            rt.unregister("clusters")


class TestSubmission:
    def test_submit_returns_future_per_request(self, runtime, db):
        rt, spec, _, _ = runtime
        features, fk = a_request(db, spec)
        futures = [
            rt.submit("ratings", features[i:i + 5], fk[i:i + 5])
            for i in range(0, 30, 5)
        ]
        outputs = np.concatenate([f.result(10.0) for f in futures])
        assert outputs.shape == (30, 1)

    def test_malformed_request_fails_fast_on_the_caller(self, runtime):
        rt, _, _, _ = runtime
        with pytest.raises(ModelError, match="width"):
            rt.submit("ratings", np.zeros((2, 9)), np.zeros(2, int))
        with pytest.raises(ModelError, match="foreign keys"):
            rt.submit("ratings", np.zeros((2, 3)), np.zeros(3, int))

    def test_score_is_gmm_only(self, runtime, db):
        rt, spec, _, _ = runtime
        features, fk = a_request(db, spec, n=10)
        scores = rt.score("clusters", features, fk)
        assert scores.shape == (10,)
        with pytest.raises(ModelError, match="score"):
            rt.score("ratings", features, fk)

    @pytest.mark.parametrize("op", ["predict", "score"])
    def test_timeout_bounds_the_wait_for_queue_space(
        self, db, binary_star, op
    ):
        spec = binary_star.spec
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        features, fk = a_request(db, spec, n=4)
        release, running = threading.Event(), threading.Event()
        with serve_runtime(
            db, num_workers=1, max_wait_ms=0.0, queue_depth=1
        ) as rt:
            rt.register_gmm("clusters", gmm, spec)
            execute = rt._executor.execute

            def held(*args, **kwargs):
                running.set()
                assert release.wait(30.0)
                return execute(*args, **kwargs)

            rt._executor.execute = held
            try:
                executing = rt.submit("clusters", features, fk, op=op)
                assert running.wait(10.0)
                queued = rt.submit("clusters", features, fk, op=op)
                tick = time.perf_counter()
                with pytest.raises(ModelError, match="request queue full"):
                    getattr(rt, op)("clusters", features, fk, timeout=0.2)
                assert 0.15 < time.perf_counter() - tick < 0.5
            finally:
                release.set()
            assert executing.result(10.0).shape == (4,)
            assert queued.result(10.0).shape == (4,)

    def test_unknown_op_rejected(self, runtime, db):
        rt, spec, _, _ = runtime
        features, fk = a_request(db, spec, n=2)
        with pytest.raises(ModelError, match="op"):
            rt.submit("clusters", features, fk, op="explain")

    def test_execution_errors_propagate_through_the_future(
        self, runtime, db
    ):
        rt, spec, _, _ = runtime
        features, fk = a_request(db, spec, n=4)
        future = rt.submit("ratings", features, fk.copy() * 0 + 10**6)
        with pytest.raises(ModelError):
            future.result(10.0)
        # The worker survives a poisoned batch.
        assert rt.predict("ratings", features, fk).shape == (4, 1)

    def test_bad_request_does_not_poison_coalesced_neighbours(
        self, runtime, db
    ):
        # Drive the worker's batch path directly so the good and the
        # dangling-FK request are guaranteed to share one micro-batch.
        from repro.runtime.queue import Request
        from repro.runtime.service import WorkerStats

        rt, spec, _, _ = runtime
        features, fk = a_request(db, spec, n=4)
        good = Request(("ratings", "predict"), features, [fk])
        bad = Request(
            ("ratings", "predict"), features, [fk * 0 + 10**6]
        )
        rt._execute([good, bad], WorkerStats())
        assert good.future.result(10.0).shape == (4, 1)
        with pytest.raises(ModelError):
            bad.future.result(10.0)


class TestWorkConservingLinger:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_a_burst_does_not_wait_out_max_wait(
        self, db, binary_star, executor
    ):
        """32 one-row requests from one thread dispatch when the burst
        ends, not 200 ms later, and still as one batch (or two)."""
        spec = binary_star.spec
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        features, fk = a_request(db, spec, n=32)
        inline = serve(db)
        inline.register_gmm("clusters", gmm, spec)
        expected = inline.predict("clusters", features, fk)
        inline.close()
        with serve_runtime(
            db, num_workers=2, max_wait_ms=200, max_batch_rows=10**6,
            executor=executor,
        ) as rt:
            rt.register_gmm("clusters", gmm, spec)
            rt.predict("clusters", features, fk, timeout=30.0)   # warm
            # Best of three: one stall of this host is not the rule's.
            for _ in range(3):
                before = rt.runtime_stats()
                tick = time.perf_counter()
                futures = [
                    rt.submit("clusters", features[i:i + 1], fk[i:i + 1])
                    for i in range(32)
                ]
                outputs = [future.result(10.0) for future in futures]
                elapsed = time.perf_counter() - tick
                after = rt.runtime_stats()
                batches = after.batches - before.batches
                assert np.array_equal(np.concatenate(outputs), expected)
                if elapsed < 0.1 and batches <= 2:
                    break
            assert elapsed < 0.1
            assert batches <= 2
            closed = {
                reason: count - before.batch_close_reasons[reason]
                for reason, count in after.batch_close_reasons.items()
            }
            assert closed["quiet"] == batches
            assert closed["deadline"] == 0


class TestBookkeeping:
    def test_stats_accumulate_per_model(self, runtime, db):
        rt, spec, _, _ = runtime
        features, fk = a_request(db, spec, n=20)
        rt.predict("clusters", features, fk)
        rt.predict("clusters", features, fk)
        stats = rt.stats("clusters")
        assert stats.rows == 40
        assert stats.wall_seconds > 0
        assert stats.rows_per_second > 0
        assert rt.stats("ratings").requests == 0

    def test_runtime_stats_snapshot(self, runtime, db):
        rt, spec, _, _ = runtime
        features, fk = a_request(db, spec, n=16)
        rt.predict("clusters", features, fk)
        rt.predict("ratings", features, fk)
        snapshot = rt.runtime_stats()
        assert snapshot.requests_enqueued >= 2
        assert snapshot.batches >= 2
        assert sum(snapshot.batch_size_histogram.values()) == (
            snapshot.batches
        )
        assert all(bucket >= 16 for bucket in snapshot.batch_size_histogram)
        assert len(snapshot.workers) == 2
        assert sum(w.batches for w in snapshot.workers) == snapshot.batches
        assert "clusters" in snapshot.planner_decisions
        assert "clusters" in snapshot.cache_stats

    def test_planner_decisions_recorded(self, runtime, db):
        rt, spec, _, _ = runtime
        features, fk = a_request(db, spec, n=25)
        rt.predict("clusters", features, fk)
        decisions = rt.planner_stats("clusters").decisions
        assert sum(decisions.values()) == 1

    def test_cache_stats_per_dimension(self, runtime, db):
        rt, spec, _, _ = runtime
        features, fk = a_request(db, spec, n=25)
        rt.predict("clusters", features, fk)
        stats = rt.cache_stats("clusters")
        assert len(stats) == 1  # one dimension


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_new_work(self, db, binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        rt = serve_runtime(db)
        rt.register_nn("n", nn, binary_star.spec)
        rt.close()
        rt.close()
        with pytest.raises(ModelError, match="closed"):
            rt.submit("n", np.zeros((1, 3)), np.zeros(1, int))
        with pytest.raises(ModelError, match="closed"):
            rt.register_nn("late", nn, binary_star.spec)

    def test_context_manager_closes(self, db, binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        with serve_runtime(db) as rt:
            rt.register_nn("n", nn, binary_star.spec)
        with pytest.raises(ModelError, match="closed"):
            rt.submit("n", np.zeros((1, 3)), np.zeros(1, int))

    def test_queued_work_drains_on_close(self, db, binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        rt = serve_runtime(db, num_workers=1)
        rt.register_nn("n", nn, binary_star.spec)
        features, fk = a_request(db, binary_star.spec, n=8)
        futures = [rt.submit("n", features, fk) for _ in range(20)]
        rt.close()
        for future in futures:
            assert future.result(10.0).shape == (8, 1)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_workers=0),
            dict(max_batch_rows=0),
            dict(max_wait_ms=-1.0),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ModelError):
            RuntimeConfig(**kwargs)

    def test_runtime_defaults(self, db):
        rt = ServingRuntime(db)
        assert rt.config.num_workers == 2
        rt.close()
