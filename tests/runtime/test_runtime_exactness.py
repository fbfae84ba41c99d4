"""Runtime exactness: concurrent micro-batched serving equals the
dense join oracle, on binary and multiway joins, for every strategy
the planner can pick.

The acceptance invariant of the runtime: coalescing, shared caching,
adaptive planning and worker parallelism must be pure plumbing — the
outputs match the reference/materialized scoring bit-for-bit (GMM hard
labels) or to float-summation order (NN outputs).
"""

import threading
import warnings

import numpy as np
import pytest

from repro.core.api import fit_gmm, fit_nn, serve_runtime
from repro.data.synthetic import (
    DimensionSpec,
    StarSchemaConfig,
    generate_star,
)
from repro.join.reference import nested_loop_join


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture(params=["binary", "multiway"])
def fitted(request, db):
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


def stored_requests(db, spec, chunk):
    """The stored fact tuples as a stream of normalized point requests."""
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


class TestSequentialSubmission:
    def test_gmm_labels_match_dense_model(self, db, fitted):
        spec, gmm, _, oracle = fitted
        expected = gmm.model.predict(oracle.design.fact_block)
        with serve_runtime(db, num_workers=2, max_wait_ms=1.0) as rt:
            rt.register_gmm("g", gmm, spec)
            futures = [
                rt.submit("g", features, fks)
                for features, fks in stored_requests(db, spec, 40)
            ]
            outputs = np.concatenate([f.result(30.0) for f in futures])
        np.testing.assert_array_equal(outputs, expected)

    def test_nn_outputs_match_dense_model(self, db, fitted):
        spec, _, nn, oracle = fitted
        expected = nn.predict(oracle.design.fact_block)
        with serve_runtime(db, num_workers=2, max_wait_ms=1.0) as rt:
            rt.register_nn("n", nn, spec)
            futures = [
                rt.submit("n", features, fks)
                for features, fks in stored_requests(db, spec, 40)
            ]
            outputs = np.concatenate([f.result(30.0) for f in futures])
        np.testing.assert_allclose(
            outputs, expected, rtol=1e-9, atol=1e-9
        )

    def test_gmm_scores_match_dense_model(self, db, fitted):
        spec, gmm, _, oracle = fitted
        expected = gmm.model.score_samples(oracle.design.fact_block)
        with serve_runtime(db, num_workers=2, max_wait_ms=1.0) as rt:
            rt.register_gmm("g", gmm, spec)
            futures = [
                rt.submit("g", features, fks, op="score")
                for features, fks in stored_requests(db, spec, 64)
            ]
            outputs = np.concatenate([f.result(30.0) for f in futures])
        np.testing.assert_allclose(
            outputs, expected, rtol=1e-9, atol=1e-9
        )

    @pytest.mark.parametrize("strategy", ["factorized", "materialized"])
    def test_pinned_strategies_agree_with_adaptive(self, db, fitted, strategy):
        spec, gmm, _, oracle = fitted
        expected = gmm.model.predict(oracle.design.fact_block)
        with serve_runtime(db, num_workers=2, max_wait_ms=0.0) as rt:
            rt.register_gmm("g", gmm, spec, strategy=strategy)
            futures = [
                rt.submit("g", features, fks)
                for features, fks in stored_requests(db, spec, 50)
            ]
            outputs = np.concatenate([f.result(30.0) for f in futures])
        np.testing.assert_array_equal(outputs, expected)


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
        # A budget far below both models' partials: eviction races the
        # lookups of every worker.
        with serve_runtime(
            db, num_workers=4, max_wait_ms=2.0, max_batch_rows=128,
            memory_budget=512,
        ) as rt:
            rt.register_gmm("g", gmm, spec)
            rt.register_nn("n", nn, spec)

            def client(thread_id):
                rng = np.random.default_rng(thread_id)
                order = rng.permutation(len(requests))
                for index in order:
                    features, fks = requests[index]
                    lo, hi = bounds[index], bounds[index + 1]
                    labels = rt.predict("g", features, fks, timeout=30.0)
                    if not np.array_equal(labels, expected_labels[lo:hi]):
                        failures.append(("gmm", thread_id, index))
                    outputs = rt.predict("n", features, fks, timeout=30.0)
                    if not np.allclose(
                        outputs, expected_outputs[lo:hi],
                        rtol=1e-9, atol=1e-9,
                    ):
                        failures.append(("nn", thread_id, index))

            threads = [
                threading.Thread(target=client, args=(t,)) for t in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            snapshot = rt.runtime_stats()
        assert not failures
        # The load was genuinely concurrent and genuinely batched.
        busy_workers = sum(1 for w in snapshot.workers if w.batches)
        assert busy_workers >= 2
        assert snapshot.batches >= 1
        assert snapshot.store.cross_evictions > 0
