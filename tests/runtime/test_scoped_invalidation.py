"""Page-scoped buffer-pool invalidation in the process workers.

A dimension update names the touched heap rows (``event.positions``);
the worker-side handler must drop only their buffer-pool pages, keeping
every untouched page resident, and fall back to dropping the whole
relation when an event arrives without positions.  End-to-end, the
process backend must keep serving exact outputs after an in-place
update, with the invalidation counts pinned to the touched rows.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.api import fit_nn, predict_nn, serve_runtime
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.runtime.procworker import _Worker


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def _stub_worker(db) -> _Worker:
    """A worker shell with just enough state for ``on_invalidate``."""
    worker = object.__new__(_Worker)
    worker.core = None
    worker.db = db
    return worker


def _resident_pages(db, heap) -> set[int]:
    return set(db.buffer_pool.resident_pages(heap))


class TestWorkerPageScopedInvalidation:
    @pytest.fixture
    def star(self, tiny_db):
        # Small pages so the dimension heap spans several of them.
        config = StarSchemaConfig.binary(
            n_s=200, n_r=60, d_s=3, d_r=4, with_target=True, seed=3
        )
        return generate_star(tiny_db, config)

    def test_positions_drop_only_their_pages(self, tiny_db, star):
        relation = tiny_db.relation("R1")
        heap = relation.heap
        for page in range(heap.npages):
            tiny_db.buffer_pool.get_page(heap, page)
        assert heap.npages >= 3
        assert _resident_pages(tiny_db, heap) == set(range(heap.npages))

        worker = _stub_worker(tiny_db)
        position = heap.rows_per_page          # first row of page 1
        worker.on_invalidate(
            {
                "relation": "R1",
                "rids": np.array([position], dtype=np.int64),
                "positions": np.array([position], dtype=np.int64),
            }
        )
        expected = set(range(heap.npages)) - {1}
        assert _resident_pages(tiny_db, heap) == expected

    def test_multiple_positions_coalesce_to_distinct_pages(
        self, tiny_db, star
    ):
        relation = tiny_db.relation("R1")
        heap = relation.heap
        for page in range(heap.npages):
            tiny_db.buffer_pool.get_page(heap, page)

        worker = _stub_worker(tiny_db)
        rows = heap.rows_per_page
        positions = np.array([0, 1, rows, rows + 1], dtype=np.int64)
        worker.on_invalidate(
            {
                "relation": "R1",
                "rids": positions,
                "positions": positions,
            }
        )
        expected = set(range(heap.npages)) - {0, 1}
        assert _resident_pages(tiny_db, heap) == expected

    def test_missing_positions_fall_back_to_whole_relation(
        self, tiny_db, star
    ):
        relation = tiny_db.relation("R1")
        heap = relation.heap
        for page in range(heap.npages):
            tiny_db.buffer_pool.get_page(heap, page)
        fact_heap = tiny_db.relation("S").heap
        tiny_db.buffer_pool.get_page(fact_heap, 0)

        worker = _stub_worker(tiny_db)
        worker.on_invalidate(
            {
                "relation": "R1",
                "rids": np.array([0], dtype=np.int64),
                "positions": None,
            }
        )
        assert _resident_pages(tiny_db, heap) == set()
        # Other relations' pages are never touched.
        assert _resident_pages(tiny_db, fact_heap) == {0}


class TestProcessBackendEndToEnd:
    def test_update_invalidation_counts_pinned_and_outputs_exact(self, db):
        star = generate_star(
            db,
            StarSchemaConfig.binary(
                n_s=240, n_r=20, d_s=3, d_r=4, with_target=True, seed=5
            ),
        )
        spec = star.spec
        nn = fit_nn(db, spec, hidden_sizes=(6,), epochs=1, seed=1)
        fact = spec.resolve(db).fact
        rows = fact.scan()[:64]
        features = fact.project_features(rows)
        fks = rows[:, fact.schema.fk_position("R1")].astype(np.int64)

        rt = serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        )
        try:
            rt.register_nn("n", nn, spec, strategy="factorized")
            rt.predict("n", features, fks)

            victims = np.array([int(fks[0]), int(fks[1])])
            victims = np.unique(victims)
            relation = db.relation("R1")
            positions = relation.positions_of_keys(victims)
            replacement = relation.scan()[positions].copy()
            replacement[:, 1:] += 2.0
            db.update_rows("R1", positions, replacement)

            # The parent-side counter pins the touched-RID count.
            assert rt.runtime_stats().invalidated_rids["n"] == len(
                victims
            )
            served = rt.predict("n", features, fks)
            oracle = predict_nn(db, spec, nn, features, fks)
            np.testing.assert_array_equal(served, oracle)
        finally:
            rt.close()
