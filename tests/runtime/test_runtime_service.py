"""ServingRuntime: registration, submission, bookkeeping, lifecycle."""

import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.core.api import fit_gmm, fit_nn, serve, serve_runtime
from repro.errors import ModelError
from repro.fx.sharding import ShardedPartialCache
from repro.obs.metrics import LATENCY_BUCKETS_S
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
    def test_adaptive_models_carry_one_factorized_predictor(self, runtime):
        rt, _, _, _ = runtime
        model = rt.model("clusters")
        assert model.strategy == "adaptive"
        assert model.predictor.strategy == "factorized"
        assert model.caches == model.predictor.caches != []
        assert model.planner is not None

    def test_fixed_strategy_pins_one_predictor(self, db, binary_star):
        nn = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1, seed=1
        )
        with serve_runtime(db) as rt:
            rt.register_nn("f", nn, binary_star.spec, strategy="factorized")
            rt.register_nn("m", nn, binary_star.spec, strategy="M")
            assert rt.model("f").predictor.strategy == "factorized"
            assert rt.model("f").planner is None
            assert rt.model("m").predictor.strategy == "materialized"
            assert rt.model("m").planner is None
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

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_sparse_requests_do_not_wait_out_max_wait(
        self, db, binary_star, executor
    ):
        """One-row requests spaced wider than ``max_wait_ms`` each
        dispatch alone at once (``sparse``), not ``max_wait_ms`` later,
        with the inline service's outputs."""
        spec = binary_star.spec
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        features, fk = a_request(db, spec, n=6)
        inline = serve(db)
        inline.register_gmm("clusters", gmm, spec)
        expected = [
            inline.predict("clusters", features[i:i + 1], fk[i:i + 1])
            for i in range(6)
        ]
        inline.close()
        max_wait_ms, spacing = 50.0, 0.1
        with serve_runtime(
            db, num_workers=2, max_wait_ms=max_wait_ms, executor=executor,
        ) as rt:
            rt.register_gmm("clusters", gmm, spec)
            rt.predict("clusters", features, fk, timeout=30.0)   # warm
            # Best of three: one stall of this host is not the rule's.
            for _ in range(3):
                before = rt.runtime_stats()
                outputs, elapsed = [], []
                for i in range(6):
                    time.sleep(spacing)
                    tick = time.perf_counter()
                    future = rt.submit(
                        "clusters", features[i:i + 1], fk[i:i + 1]
                    )
                    outputs.append(future.result(10.0))
                    elapsed.append(time.perf_counter() - tick)
                after = rt.runtime_stats()
                for output, want in zip(outputs, expected):
                    assert np.array_equal(output, want)
                if max(elapsed) < max_wait_ms / 1000:
                    break
            assert max(elapsed) < max_wait_ms / 1000
            closed = {
                reason: count - before.batch_close_reasons[reason]
                for reason, count in after.batch_close_reasons.items()
            }
            assert closed["sparse"] == 6
            assert after.batches - before.batches == 6


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


class TestRequestsAndBatches:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_coalesced_requests_count_once_each(
        self, db, binary_star, executor
    ):
        """16 four-row requests coalesced into one micro-batch are 16
        requests and one batch of the model's ``ServingStats``."""
        spec = binary_star.spec
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        features, fk = a_request(db, spec, n=64)
        with serve_runtime(
            db, num_workers=1, max_batch_rows=64, max_wait_ms=500.0,
            executor=executor,
        ) as rt:
            rt.register_gmm("g", gmm, spec)
            rt.register_gmm("hold", gmm, spec)
            # A lone request for another model holds the one dispatcher
            # for its whole linger (max_wait_ms), so the 16 queue up
            # behind it and leave as one batch of max_batch_rows rows.
            hold = rt.submit("hold", features[:1], fk[:1])
            futures = [
                rt.submit("g", features[i:i + 4], fk[i:i + 4])
                for i in range(0, 64, 4)
            ]
            for future in futures:
                assert future.result(30.0).shape == (4,)
            hold.result(30.0)
            stats = rt.stats("g").snapshot()
            assert rt.runtime_stats().batch_close_reasons["rows"] == 1
        assert stats.requests == 16
        assert stats.batches == 1
        assert stats.rows == 64


def bump_dimension_row(db, rid, delta=5.0):
    """Shift one R1 row's features in place (a dimension update)."""
    relation = db["R1"]
    position = relation.positions_of_keys(np.array([rid]))
    row = relation.scan()[position[0]].copy()
    row[1:] += delta           # features only; the key must not change
    db.update_rows("R1", position, row[None, :])


def assert_series_equal_books(rt, names):
    """Every sampled serving series equals the record it samples."""
    snap = rt.telemetry.snapshot()
    stats = rt.runtime_stats()
    for name in names:
        assert snap.value("repro_batches_total", model=name) == (
            rt.stats(name).batches
        )
        assert snap.value("repro_invalidated_rids_total", model=name) == (
            stats.invalidated_rids[name]
        )
        planner = rt.planner_stats(name)
        sampled = {
            dict(s.labels)["strategy"]: s.value
            for s in snap.family("repro_planner_decisions_total")
            if dict(s.labels)["model"] == name
        }
        assert sampled == dict(planner.decisions)
        if rt.model(name).strategy != "adaptive":
            assert not sampled
            continue
        assert sampled == stats.planner_decisions[name]
        assert snap.value(
            "repro_planner_dense_mults_total", model=name
        ) == planner.dense_mults
        assert snap.value(
            "repro_planner_factorized_mults_total", model=name
        ) == planner.factorized_mults
    assert sum(rt.stats(name).batches for name in names) == stats.batches
    sizes = snap.value("repro_batch_rows")
    assert sizes.count == stats.batches
    assert {
        int(bound): n for bound, n in zip(sizes.buckets, sizes.counts) if n
    } == stats.batch_size_histogram
    for family, record in (
        ("repro_scatter_seconds", stats.scatter_seconds),
        ("repro_gather_seconds", stats.gather_seconds),
    ):
        if record.count:
            assert snap.value(family) == record
        else:           # thread mode never scatters
            assert snap.family(family) == []
    for index, worker in enumerate(stats.workers):
        assert snap.value(
            "repro_worker_rows_executed_total", worker=str(index)
        ) == worker.rows
    return snap


class TestMetricsSampleTheBooks:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_every_sampled_series_equals_its_record(
        self, db, binary_star, executor
    ):
        spec = binary_star.spec
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        nn = fit_nn(db, spec, hidden_sizes=(6,), epochs=1, seed=1)
        features, fk = a_request(db, spec, n=64)
        with serve_runtime(
            db, num_workers=2, executor=executor, telemetry=True
        ) as rt:
            rt.register_gmm("g", gmm, spec)             # adaptive
            rt.register_nn("n", nn, spec, strategy="factorized")

            def traffic():
                futures = [
                    rt.submit(name, features[i:i + 4], fk[i:i + 4])
                    for i in range(0, 64, 4)
                    for name in ("g", "n")
                ]
                for future in futures:
                    future.result(30.0)

            traffic()
            assert_series_equal_books(rt, ("g", "n"))
            bump_dimension_row(db, int(fk[0]))
            traffic()
            assert rt.runtime_stats().invalidated_rids["n"] > 0
            before_swap = assert_series_equal_books(rt, ("g", "n"))
            rt.swap_model("g", gmm)
            rt.swap_model("n", nn)
            traffic()
            after_swap = assert_series_equal_books(rt, ("g", "n"))
            # Every book carried over the swap: no counter stepped back.
            window = after_swap.delta(before_swap)
            assert window.value("repro_batches_total", model="g") > 0

    def test_the_request_book_agrees_with_itself(self, db, binary_star):
        """Completions, queue waits and batch latencies are one book:
        every request the runtime answers is counted once by op and
        waited once, and every batch the core records is timed once —
        with more dispatchers than cores and a short switch interval,
        so a lost update between them would show."""
        spec = binary_star.spec
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        features, fk = a_request(db, spec, n=64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with serve_runtime(
                db, num_workers=8, max_wait_ms=0.5, telemetry=True
            ) as rt:
                rt.register_gmm("g", gmm, spec)
                futures = [
                    rt.submit("g", features[i:i + 2], fk[i:i + 2], op=op)
                    for _ in range(5)
                    for i in range(0, 64, 2)
                    for op in ("predict", "score")
                    if op == "predict" or i % 8 == 0
                ]
                for future in futures:
                    future.result(30.0)
                with pytest.raises(ModelError):         # dangling FK
                    rt.predict("g", features[:2], fk[:2] * 0 + 10**6)
                snapshot = rt.telemetry.snapshot()
        finally:
            sys.setswitchinterval(interval)
        requests = sum(
            sample.value
            for sample in snapshot.family("repro_requests_total")
        )
        assert requests == len(futures) + 1 == 5 * (32 + 8) + 1
        assert snapshot.value("repro_batch_failures_total", model="g") == 1
        assert snapshot.value("repro_queue_wait_seconds").count == requests
        assert snapshot.value(
            "repro_batch_seconds", model="g"
        ).count == snapshot.value("repro_batches_total", model="g")

    def test_the_request_book_is_kept_per_model_and_op(self, db, binary_star):
        spec = binary_star.spec
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        nn = fit_nn(db, spec, hidden_sizes=(6,), epochs=1, seed=1)
        features, fk = a_request(db, spec, n=8)
        with serve_runtime(db, num_workers=2, telemetry=True) as rt:
            rt.register_gmm("g", gmm, spec)
            rt.register_nn("n", nn, spec)
            for _ in range(3):
                rt.predict("g", features, fk)
            rt.score("g", features, fk)
            for _ in range(2):
                rt.predict("n", features, fk)
            snapshot = rt.telemetry.snapshot()
        for model, op, expected in (
            ("g", "predict", 3), ("g", "score", 1), ("n", "predict", 2),
        ):
            assert snapshot.value(
                "repro_requests_total", model=model, op=op
            ) == expected
        # A model that never failed has no failure series, and the
        # batch latencies are kept on the latency ladder, per model.
        assert snapshot.family("repro_batch_failures_total") == []
        for model in ("g", "n"):
            seconds = snapshot.value("repro_batch_seconds", model=model)
            assert seconds.buckets == LATENCY_BUCKETS_S
            assert seconds.count == snapshot.value(
                "repro_batches_total", model=model
            )
        wait = snapshot.value("repro_queue_wait_seconds")
        assert wait.buckets == LATENCY_BUCKETS_S
        assert wait.count == 3 + 1 + 2

    def test_a_poisoned_batch_books_each_request_once(self, db, binary_star):
        """A coalesced batch that fails is retried request by request:
        the good request is booked as served, the bad one as failed,
        and each waited once — the failed attempt books nothing."""
        from repro.runtime.queue import Request
        from repro.runtime.service import WorkerStats

        spec = binary_star.spec
        nn = fit_nn(db, spec, hidden_sizes=(6,), epochs=1, seed=1)
        features, fk = a_request(db, spec, n=4)
        with serve_runtime(db, num_workers=1, telemetry=True) as rt:
            rt.register_nn("n", nn, spec)
            good = Request(("n", "predict"), features, [fk])
            bad = Request(("n", "predict"), features, [fk * 0 + 10**6])
            rt._execute([good, bad], WorkerStats())
            assert good.future.result(10.0).shape == (4, 1)
            with pytest.raises(ModelError):
                bad.future.result(10.0)
            snapshot = rt.telemetry.snapshot()
        assert snapshot.value(
            "repro_requests_total", model="n", op="predict"
        ) == 2
        assert snapshot.value("repro_batch_failures_total", model="n") == 1
        assert snapshot.value("repro_queue_wait_seconds").count == 2
        assert snapshot.value("repro_batch_seconds", model="n").count == 1

    def test_snapshots_under_submit_fire_agree(self, db, binary_star):
        """Each snapshot reads the request book in one hold of its
        lock: completions and queue waits agree in every cut, not only
        once the traffic stops, and none is lost between submitters."""
        spec = binary_star.spec
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        features, fk = a_request(db, spec, n=16)
        submitters, per_submitter = 4, 25
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.5, telemetry=True
        ) as rt:
            rt.register_gmm("g", gmm, spec)
            barrier = threading.Barrier(submitters + 1)

            def submit(index):
                barrier.wait()
                for i in range(per_submitter):
                    start = (index + i) % 8 * 2
                    rt.predict(
                        "g", features[start:start + 2],
                        fk[start:start + 2], timeout=30.0,
                    )

            pool = [
                threading.Thread(target=submit, args=(index,))
                for index in range(submitters)
            ]
            for thread in pool:
                thread.start()
            barrier.wait()
            cuts = []
            while any(thread.is_alive() for thread in pool):
                cuts.append(rt.telemetry.snapshot())
            for thread in pool:
                thread.join()
            cuts.append(rt.telemetry.snapshot())
        for snapshot in cuts:
            requests = snapshot.get(
                "repro_requests_total", model="g", op="predict"
            )
            # An empty histogram is not exported until it is observed.
            wait = snapshot.get("repro_queue_wait_seconds", default=None)
            assert (0 if wait is None else wait.count) == requests
        assert requests == submitters * per_submitter



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
