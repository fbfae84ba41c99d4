"""Process-backend exactness and parity: ``executor="process"`` must be
indistinguishable from the threaded backend in everything but the
execution substrate.

The acceptance invariants: outputs are *bit-exact* against the threaded
runtime whenever the batches match (a batch crosses the pipe whole, so
a worker runs exactly the batch a dispatcher thread would), match the
dense oracle under the adaptive planner, stay exact under concurrent
submission and mid-run invalidation, and the
runtime's observability surface (stats, cache stats, budget control)
keeps working when the caches live in worker processes.
"""

import multiprocessing as mp
import os
import tempfile
import threading
import warnings

import numpy as np
import pytest

from repro.core.api import fit_gmm, fit_nn, serve, serve_runtime
from repro.data.synthetic import (
    DimensionSpec,
    StarSchemaConfig,
    generate_star,
)
from repro.errors import ModelError
from repro.join.reference import nested_loop_join
from repro.storage.catalog import Database


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture(params=["binary", "multiway"])
def fitted(request, db):
    if request.param == "binary":
        config = StarSchemaConfig.binary(
            n_s=300, n_r=15, d_s=3, d_r=4, with_target=True, seed=7
        )
    else:
        config = StarSchemaConfig(
            n_s=240,
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


def stored_requests(db, spec, chunk):
    fact = spec.resolve(db).fact
    rows = fact.scan()
    features = fact.project_features(rows)
    fks = np.column_stack(
        [
            rows[:, fact.schema.fk_position(dim.relation)].astype(np.int64)
            for dim in spec.dimensions
        ]
    )
    return [
        (features[i:i + chunk], fks[i:i + chunk])
        for i in range(0, rows.shape[0], chunk)
    ]


def whole_batch(db, spec):
    (pair,) = stored_requests(db, spec, 10**9)
    return pair


class TestThreadProcessParity:
    """One contract across executors: outputs are ``array_equal``
    whenever the batches match, GMM and NN alike.  A process worker is
    sent the whole batch, so with one or with two workers it runs the
    very same per-row arithmetic as a dispatcher thread."""

    def run_both(self, db, spec, register, call, *, workers=1):
        outputs = {}
        for executor in ("thread", "process"):
            with serve_runtime(
                db, num_workers=workers, max_wait_ms=0.0, executor=executor
            ) as rt:
                register(rt)
                outputs[executor] = call(rt)
        return outputs["thread"], outputs["process"]

    def test_gmm_labels_bit_exact_across_backends(self, db, fitted):
        spec, gmm, _, _ = fitted
        features, fks = whole_batch(db, spec)
        threaded, processed = self.run_both(
            db, spec,
            lambda rt: rt.register_gmm("g", gmm, spec, strategy="factorized"),
            lambda rt: rt.predict("g", features, fks),
            workers=2,
        )
        assert threaded.dtype == processed.dtype == np.int64
        np.testing.assert_array_equal(threaded, processed)

    def test_nn_outputs_bit_exact_with_matching_batches(self, db, fitted):
        spec, _, nn, _ = fitted
        features, fks = whole_batch(db, spec)
        threaded, processed = self.run_both(
            db, spec,
            lambda rt: rt.register_nn("n", nn, spec, strategy="factorized"),
            lambda rt: rt.predict("n", features, fks),
        )
        assert threaded.dtype == processed.dtype == np.float64
        np.testing.assert_array_equal(threaded, processed)

    def test_nn_outputs_bit_exact_with_two_workers(self, db, fitted):
        spec, _, nn, _ = fitted
        features, fks = whole_batch(db, spec)
        threaded, processed = self.run_both(
            db, spec,
            lambda rt: rt.register_nn("n", nn, spec, strategy="factorized"),
            lambda rt: rt.predict("n", features, fks),
            workers=2,
        )
        np.testing.assert_array_equal(threaded, processed)

    def test_gmm_scores_bit_exact_across_backends(self, db, fitted):
        spec, gmm, _, _ = fitted
        features, fks = whole_batch(db, spec)
        threaded, processed = self.run_both(
            db, spec,
            lambda rt: rt.register_gmm("g", gmm, spec, strategy="factorized"),
            lambda rt: rt.score("g", features, fks),
        )
        np.testing.assert_array_equal(threaded, processed)

    def test_process_outputs_deterministic_across_runs(self, db, fitted):
        spec, _, nn, _ = fitted
        features, fks = whole_batch(db, spec)
        runs = []
        for _ in range(2):
            with serve_runtime(
                db, num_workers=2, max_wait_ms=0.0, executor="process"
            ) as rt:
                rt.register_nn("n", nn, spec, strategy="factorized")
                runs.append(rt.predict("n", features, fks))
        np.testing.assert_array_equal(runs[0], runs[1])


class TestAdaptiveExactness:
    """Coalescing depends on arrival timing, so the batches (and the
    adaptive planner's choice for each) need not match a threaded
    run's; the contract here is exactness against the dense oracle."""

    def test_gmm_labels_match_dense_model(self, db, fitted):
        spec, gmm, _, oracle = fitted
        expected = gmm.model.predict(oracle.design.fact_block)
        with serve_runtime(
            db, num_workers=2, max_wait_ms=1.0, executor="process"
        ) as rt:
            rt.register_gmm("g", gmm, spec)
            futures = [
                rt.submit("g", features, fks)
                for features, fks in stored_requests(db, spec, 40)
            ]
            outputs = np.concatenate([f.result(60.0) for f in futures])
        np.testing.assert_array_equal(outputs, expected)

    def test_nn_outputs_match_dense_model(self, db, fitted):
        spec, _, nn, oracle = fitted
        expected = nn.predict(oracle.design.fact_block)
        with serve_runtime(
            db, num_workers=2, max_wait_ms=1.0, executor="process"
        ) as rt:
            rt.register_nn("n", nn, spec)
            futures = [
                rt.submit("n", features, fks)
                for features, fks in stored_requests(db, spec, 40)
            ]
            outputs = np.concatenate([f.result(60.0) for f in futures])
        np.testing.assert_allclose(outputs, expected, rtol=1e-9, atol=1e-9)


class TestConcurrentLoad:
    def test_many_submitting_threads_each_get_their_own_answers(
        self, db, fitted
    ):
        spec, gmm, nn, oracle = fitted
        expected_labels = gmm.model.predict(oracle.design.fact_block)
        expected_outputs = nn.predict(oracle.design.fact_block)
        requests = stored_requests(db, spec, 25)
        bounds = np.cumsum([0] + [f.shape[0] for f, _ in requests])
        failures = []
        with serve_runtime(
            db, num_workers=2, max_wait_ms=2.0, max_batch_rows=128,
            executor="process",
        ) as rt:
            rt.register_gmm("g", gmm, spec)
            rt.register_nn("n", nn, spec)

            def client(thread_id):
                rng = np.random.default_rng(thread_id)
                order = rng.permutation(len(requests))
                for index in order:
                    features, fks = requests[index]
                    lo, hi = bounds[index], bounds[index + 1]
                    labels = rt.predict("g", features, fks, timeout=60.0)
                    if not np.array_equal(labels, expected_labels[lo:hi]):
                        failures.append(("gmm", thread_id, index))
                    outputs = rt.predict("n", features, fks, timeout=60.0)
                    if not np.allclose(
                        outputs, expected_outputs[lo:hi],
                        rtol=1e-9, atol=1e-9,
                    ):
                        failures.append(("nn", thread_id, index))

            threads = [
                threading.Thread(target=client, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            snapshot = rt.runtime_stats()
        assert not failures
        assert snapshot.executor == "process"
        # Both dispatchers ran batches, each on a worker process.
        busy = [w for w in snapshot.workers if w.rows]
        assert len(busy) == 2


class TestInvalidation:
    def test_mid_run_dimension_update_reaches_the_workers(self, db, fitted):
        spec, gmm, _, _ = fitted
        features, fks = whole_batch(db, spec)
        relation = spec.dimensions[0].relation
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        ) as rt:
            rt.register_gmm("g", gmm, spec, strategy="factorized")
            before = rt.predict("g", features, fks)
            assert before.shape == (features.shape[0],)

            # Shift every row of the first dimension; partials for all
            # its RIDs must be evicted in every worker.
            dim = db[relation]
            rows = dim.scan().copy()
            rows[:, 1:] += 2.5
            db.update_rows(
                relation, np.arange(rows.shape[0]), rows
            )

            after = rt.predict("g", features, fks)
            oracle = nested_loop_join(db, spec)
            expected = gmm.model.predict(oracle.design.fact_block)
            np.testing.assert_array_equal(after, expected)
            assert rt.model("g").invalidated_rids == dim.scan().shape[0]
            stats = rt.runtime_stats()
            assert stats.invalidated_rids["g"] == rows.shape[0]


class TestBudgetGovernance:
    def test_budget_is_enforced_across_worker_processes(self, db, fitted):
        spec, gmm, _, _ = fitted
        features, fks = whole_batch(db, spec)
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process",
            memory_budget=1 << 16,
        ) as rt:
            rt.register_gmm("g", gmm, spec, strategy="factorized")
            rt.predict("g", features, fks)
            resident = rt._executor.worker_resident_floats()
            assert sum(resident) <= 1 << 16
            # Tighten mid-flight and force a sweep (predict() resolves
            # before the dispatcher's post-batch sweep, so this keeps
            # the assertion race-free): the deficit-bounded trims bring
            # the fleet back under the new global bound.
            rt.set_memory_budget(64)
            rt._executor.sweep_budget()
            resident = rt._executor.worker_resident_floats()
            assert sum(resident) <= 64

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_a_budget_imposed_under_traffic_bounds_the_store(
        self, db, fitted, executor
    ):
        """A runtime created without a budget takes one while requests
        are in flight: afterwards the store holds at most that many
        bytes, and every output is bit-exact against the unbounded
        pass (GMM scores: position-invariant whatever the coalescing)."""
        spec, gmm, _, _ = fitted
        requests = stored_requests(db, spec, 8)
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor=executor
        ) as rt:
            rt.register_gmm("g", gmm, spec, strategy="factorized")
            unbounded = [rt.score("g", f, k) for f, k in requests]
            working_set = rt.runtime_stats().store.bytes_resident
            budget = working_set // 2
            futures = [
                rt.submit("g", f, k, op="score") for f, k in requests * 3
            ]
            rt.set_memory_budget(budget)
            outputs = [future.result(timeout=60) for future in futures]
            # The batches that overlapped the cut swept after themselves;
            # one more sweep settles the last one's overshoot.
            if executor == "process":
                rt._executor.sweep_budget()
            else:
                rt.store.enforce_budget()
            held = rt.runtime_stats().store
        assert held.bytes_resident <= budget < working_set
        for index, output in enumerate(outputs):
            np.testing.assert_array_equal(
                output, unbounded[index % len(requests)]
            )

    def test_lifting_the_budget_mid_sweep_loses_no_request(
        self, db, fitted, monkeypatch
    ):
        """``set_memory_budget(None)`` does not wait for a sweep in
        flight: one that lands between the sweep's reads of the bound
        must not fail it."""
        spec, _, nn, _ = fitted
        features, fks = whole_batch(db, spec)
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process",
            memory_budget=64,
        ) as rt:
            rt.register_nn("m", nn, spec, strategy="factorized")
            executor = rt._executor
            read = executor.worker_resident_floats

            def lifted_while_reading():
                executor.set_budget(None)
                return read()

            monkeypatch.setattr(
                executor, "worker_resident_floats", lifted_while_reading
            )
            out = rt.predict("m", features, fks)
            monkeypatch.setattr(executor, "worker_resident_floats", read)
            assert executor.budget_floats is None
            executor.set_budget(8)
            assert sum(executor.worker_resident_floats()) <= 8
            # The runtime is still serving.
            np.testing.assert_array_equal(rt.predict("m", features, fks), out)


class TestObservability:
    def test_runtime_stats_merge_worker_telemetry(self, db, fitted):
        spec, gmm, _, _ = fitted
        features, fks = whole_batch(db, spec)
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        ) as rt:
            rt.register_gmm("g", gmm, spec, strategy="factorized")
            rt.predict("g", features, fks)
            snapshot = rt.runtime_stats()
            headers = rt._executor.worker_resident_floats()
        assert snapshot.executor == "process"
        assert sum(w.rows for w in snapshot.workers) == (
            features.shape[0]
        )
        # Scatter/gather latency histograms recorded the batch.
        assert snapshot.scatter_seconds.count >= 1
        assert snapshot.gather_seconds.count >= 1
        assert snapshot.scatter_seconds.sum >= 0.0
        # Cache stats come back from the workers and are aggregated.
        assert "g" in snapshot.cache_stats
        (merged,) = snapshot.cache_stats["g"][:1]
        assert merged.entries > 0
        # The merged store residency is what the workers' header rows
        # charge the budget.
        assert snapshot.store is not None
        assert snapshot.store.bytes_resident > 0
        assert snapshot.store.bytes_resident == 8 * sum(headers)

    def test_cache_stats_by_name_work_in_process_mode(self, db, fitted):
        spec, gmm, _, _ = fitted
        features, fks = whole_batch(db, spec)
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        ) as rt:
            rt.register_gmm("g", gmm, spec, strategy="factorized")
            rt.predict("g", features, fks)
            per_dim = rt.cache_stats("g")
        assert len(per_dim) == len(spec.dimensions)
        assert sum(stats.entries for stats in per_dim) > 0


    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_planner_decisions_survive_a_swap(self, db, fitted, executor):
        """A hot swap carries the planner's decision counts along with
        the serving stats, as the exported counter does."""
        spec, gmm, _, _ = fitted
        requests = stored_requests(db, spec, 32)[:3]
        with serve_runtime(
            db, num_workers=1, max_wait_ms=0.0, executor=executor
        ) as rt:
            rt.register_gmm("g", gmm, spec)         # adaptive: planned
            for features, fks in requests:
                rt.predict("g", features, fks)
            before = rt.runtime_stats().planner_decisions["g"]
            assert sum(before.values()) >= len(requests)
            rt.swap_model("g", gmm)
            assert rt.runtime_stats().planner_decisions["g"] == before
            assert rt.stats("g").requests == len(requests)
            rt.predict("g", *requests[0])
            after = rt.runtime_stats().planner_decisions["g"]
            assert sum(after.values()) == sum(before.values()) + 1


class TestRegistrationContract:
    def test_unregistered_model_stops_serving(self, db, fitted):
        spec, gmm, _, _ = fitted
        features, fks = whole_batch(db, spec)
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        ) as rt:
            rt.register_gmm("g", gmm, spec)
            rt.predict("g", features, fks)
            rt.unregister("g")
            with pytest.raises(ModelError):
                rt.predict("g", features, fks)

    def test_unknown_executor_rejected(self, db):
        with pytest.raises(ModelError, match="executor"):
            serve_runtime(db, executor="fiber")

    def test_a_reopened_parent_reads_no_dimension_page(self, tmp_path):
        """The workers probe the dimensions; the parent only validates
        request shapes, so registering reads none of a cold dimension's
        pages there (its primary-key index stays unbuilt)."""
        path = tmp_path / "db"
        with Database(path) as db:
            star = generate_star(db, StarSchemaConfig.binary(
                n_s=2_000, n_r=5_000, d_s=2, d_r=3, seed=5,
            ))
            gmm = fit_gmm(db, star.spec, n_components=2, max_iter=2, seed=1)
        with Database(path) as db:
            spec = star.spec
            (name,) = [dim.relation for dim in spec.dimensions]
            before = db.stats.reads_for(name)
            with serve_runtime(
                db, num_workers=1, max_wait_ms=0.0, executor="process"
            ) as rt:
                rt.register_gmm("g", gmm, spec)
                assert db.stats.reads_for(name) == before
                assert db[name]._key_index is None
                outputs = rt.predict("g", *whole_batch(db, spec))
            wide = nested_loop_join(db, spec).design.fact_block
            expected = gmm.model.predict(wide)
            np.testing.assert_array_equal(outputs, expected)


class TestLifecycleAcrossConfigurations:
    """One lifecycle, three configurations of the one serving core.

    ``ModelService`` (the core inline), the thread runtime and the
    process runtime are driven in lockstep over one database through
    register → serve → dimension update → serve → swap (changed fit)
    → serve → swap (fingerprint-identical fit) → serve → unregister →
    close.  Outputs must be bit-identical across the three and match
    the dense model over the oracle join; per-dimension hit / miss /
    invalidation counters must move by exactly the expected deltas at
    every step — in particular a swap moves none of them, whether or
    not the new fit shares its caches with the old one.
    """

    CONFIGURATIONS = ("inline", "thread", "process")
    # A budget nothing here can reach, with the spill tier armed: the
    # stores run governed (clocks, spill directories) yet never evict,
    # so the counters stay deterministic and close() has something to
    # reclaim.
    BUDGET = dict(memory_budget=32 << 20, store_tiers=("spill",))

    @staticmethod
    def leftovers():
        """What close() must reclaim: spill directories and live
        worker processes."""
        return sorted(
            name for name in os.listdir(tempfile.gettempdir())
            if name.startswith("repro-spill-")
        ), sorted(
            child.pid for child in mp.active_children()
            if child.name.startswith("repro-runtime-proc-")
        )

    def open(self, db, configuration):
        if configuration == "inline":
            return serve(db, **self.BUDGET)
        # One worker each, so every batch meets the caches the
        # previous one warmed and the counter deltas are exact.
        return serve_runtime(
            db, num_workers=1, max_wait_ms=0.0, executor=configuration,
            **self.BUDGET,
        )

    @staticmethod
    def counters(service):
        return service.model("m").invalidated_rids, [
            (stats.hits, stats.misses, stats.invalidations)
            for stats in service.cache_stats("m")
        ]

    @pytest.mark.parametrize("kind", ["gmm", "nn"])
    def test_register_serve_update_swap_unregister(self, db, fitted, kind):
        spec, gmm, nn, _ = fitted
        if kind == "gmm":
            fit = gmm
            changed = fit_gmm(
                db, spec, n_components=3, max_iter=5, seed=4
            )
        else:
            fit = nn
            changed = fit_nn(db, spec, hidden_sizes=(8,), epochs=3, seed=4)
        features, fks = whole_batch(db, spec)
        distinct = [len(np.unique(fks[:, i])) for i in range(fks.shape[1])]
        before = self.leftovers()
        services = {c: self.open(db, c) for c in self.CONFIGURATIONS}
        try:
            for service in services.values():
                getattr(service, f"register_{kind}")(
                    "m", fit, spec, strategy="factorized"
                )
            seen = {c: self.counters(s) for c, s in services.items()}
            assert self.leftovers() != before   # something to reclaim

            def step(expected_invalidated, expected_deltas, serve, model):
                """Serve (or not) on all three; check outputs and the
                exact counter movement since the previous step."""
                outputs = {}
                for configuration, service in services.items():
                    if serve:
                        outputs[configuration] = service.predict(
                            "m", features, fks
                        )
                    rids, per_dim = self.counters(service)
                    old_rids, old_per_dim = seen[configuration]
                    assert rids - old_rids == expected_invalidated, (
                        configuration
                    )
                    deltas = [
                        tuple(n - o for n, o in zip(new, old))
                        for new, old in zip(per_dim, old_per_dim)
                    ]
                    assert deltas == expected_deltas, configuration
                    seen[configuration] = (rids, per_dim)
                if not serve:
                    return
                for configuration in ("thread", "process"):
                    np.testing.assert_array_equal(
                        outputs[configuration], outputs["inline"]
                    )
                wide = nested_loop_join(db, spec).design.fact_block
                if kind == "gmm":
                    np.testing.assert_array_equal(
                        outputs["inline"], model.model.predict(wide)
                    )
                else:
                    np.testing.assert_allclose(
                        outputs["inline"], model.predict(wide),
                        rtol=1e-9, atol=1e-9,
                    )

            cold = [(0, d, 0) for d in distinct]
            warm = [(d, 0, 0) for d in distinct]
            still = [(0, 0, 0) for _ in distinct]
            step(0, cold, True, fit)
            step(0, warm, True, fit)

            # Move three referenced rows of the first dimension.
            relation = spec.dimensions[0].relation
            victims = np.unique(fks[:, 0])[:3]
            positions = db[relation].positions_of_keys(victims)
            rows = db[relation].scan()[positions].copy()
            rows[:, 1:] += 1.5
            db.update_rows(relation, positions, rows)
            step(3, [(0, 0, 3)] + still[1:], False, fit)
            step(
                0, [(distinct[0] - 3, 3, 0)] + warm[1:], True, fit
            )

            # A changed fit rebuilds every cache; a fingerprint-identical
            # one gets the same caches back.  Neither moves a counter.
            for service in services.values():
                service.swap_model("m", changed)
            step(0, still, False, changed)
            step(0, cold, True, changed)
            for service in services.values():
                service.swap_model("m", changed)
            step(0, still, False, changed)
            step(0, warm, True, changed)

            for service in services.values():
                service.unregister("m")
                assert "m" not in service
                with pytest.raises(ModelError):
                    service.predict("m", features, fks)
        finally:
            for service in services.values():
                service.close()
        # Nothing outlives close(): no cache refcount in a store the
        # parent can see, no spill directory, no worker process.
        assert len(services["inline"].store) == 0
        assert len(services["thread"].store) == 0
        assert self.leftovers() == before
