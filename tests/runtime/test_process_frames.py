"""The process executor's pipe frames and the books the parent keeps
from the workers' replies.

A sub-batch crosses the pipe as one frame each way: pickled scalars,
then the arrays' raw bytes.  Every reply, OK or ERR, carries the
worker store's :class:`~repro.serve.cache.Residency`, and the parent's
worker handle keeps the latest one — the only residency the budget
governor and the collector read.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import sys
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.api import fit_gmm, fit_nn, serve_runtime
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.errors import ModelError
from repro.runtime.procpool import (
    MSG_EXEC,
    MSG_INVALIDATE,
    MSG_REGISTER,
    MSG_SHUTDOWN,
    MSG_STATS,
    MSG_TRIM,
    MSG_UNREGISTER,
    REPLY_ERR,
    REPLY_OK,
    ProcessExecutor,
    _WorkerHandle,
    pack_message,
    unpack_message,
)
from repro.runtime.procworker import _Worker
from repro.serve.cache import Residency
from repro.serve.predictor import coerce_gmm_model


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture
def star(db):
    star = generate_star(
        db,
        StarSchemaConfig.binary(
            n_s=200, n_r=12, d_s=3, d_r=4, with_target=True, seed=7
        ),
    )
    fact = star.spec.resolve(db).fact
    rows = fact.scan()
    features = fact.project_features(rows)
    fks = [
        rows[:, fact.schema.fk_position(d.relation)].astype(np.int64)
        for d in star.spec.dimensions
    ]
    return star.spec, features, fks


class TestFrames:
    @pytest.mark.parametrize("rows", [0, 1, 17])
    @pytest.mark.parametrize("q", [1, 2])
    def test_an_exec_frame_round_trips(self, rows, q):
        rng = np.random.default_rng(rows + q)
        features = rng.normal(size=(rows, 3))
        fks = [rng.integers(0, 50, size=rows) for _ in range(q)]
        payload = {"generation": 9, "op": "score"}
        mtype, req_id, got, body = unpack_message(
            pack_message(MSG_EXEC, 41, payload, (features, *fks))
        )
        assert (mtype, req_id, got) == (MSG_EXEC, 41, payload)
        assert len(body) == 1 + q
        for sent, received in zip((features, *fks), body):
            assert received.dtype == sent.dtype
            assert received.shape == sent.shape
            np.testing.assert_array_equal(received, sent)

    @pytest.mark.parametrize(
        "outputs",
        [
            np.array([2, 0, 1, 1], dtype=np.int64),
            np.arange(12, dtype=np.float64).reshape(4, 3) / 7,
            np.empty(0, dtype=np.int64),
            np.empty((0, 3)),
        ],
        ids=["labels", "2d-float", "no-labels", "no-rows"],
    )
    def test_a_reply_frame_keeps_its_dtype_and_shape(self, outputs):
        held = Residency(floats=12, demotions=3)
        mtype, req_id, (payload, residency), body = unpack_message(
            pack_message(REPLY_OK, 5, ({"rows": 4}, held), (outputs,))
        )
        assert (mtype, req_id, payload) == (REPLY_OK, 5, {"rows": 4})
        assert residency == held and type(residency) is Residency
        (received,) = body
        assert received.dtype == outputs.dtype
        assert received.shape == outputs.shape
        np.testing.assert_array_equal(received, outputs)

    def test_a_frame_without_arrays_has_an_empty_body(self):
        assert unpack_message(pack_message(MSG_STATS, 3, {})) == (
            MSG_STATS, 3, {}, []
        )

    def test_non_contiguous_arrays_are_framed_in_row_order(self):
        columns = np.arange(20, dtype=np.float64).reshape(4, 5)[:, ::2]
        (received,) = unpack_message(
            pack_message(MSG_EXEC, 1, {}, (columns,))
        )[3]
        np.testing.assert_array_equal(received, columns)


class _ThreadProcess:
    """The liveness surface ``_WorkerHandle`` reads, over a thread."""

    def __init__(self, thread):
        self.thread = thread
        self.exitcode = None

    def is_alive(self):
        return self.thread.is_alive()

    def terminate(self):  # pragma: no cover - never stalls here
        pass


class InProcessWorker:
    """A real ``_Worker`` loop on a thread of this process, and the
    parent's handle on the other end of its pipe — so a test can read
    the worker's store beside the parent's book after every reply."""

    def __init__(self, db):
        parent, child = mp.Pipe(duplex=True)
        self.worker = _Worker(
            0, child, str(db.directory), SimpleNamespace(store_tiers=())
        )
        thread = threading.Thread(target=self.worker.run, daemon=True)
        thread.start()
        self.handle = _WorkerHandle(0, _ThreadProcess(thread), parent)
        self.ids = itertools.count(1)
        self.ready = self.handle.recv_reply(0, 60.0)

    def request(self, mtype, payload, arrays=()):
        req_id = next(self.ids)
        self.handle.send(mtype, req_id, payload, arrays)
        return self.handle.recv_reply(req_id, 60.0)

    def books_agree(self) -> bool:
        return (
            type(self.handle.residency) is Residency
            and self.handle.residency == self.worker.store.residency()
        )

    def close(self):
        self.handle.send(MSG_SHUTDOWN, next(self.ids), {})
        self.handle.process.thread.join(60.0)
        self.handle.conn.close()


class TestTheResidencyBook:
    def test_the_parent_book_follows_every_message_kind(
        self, db, star, monkeypatch
    ):
        spec, features, fks = star
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        worker = InProcessWorker(db)
        try:
            assert worker.ready[0] == REPLY_OK and worker.books_agree()
            status, reply, _ = worker.request(MSG_REGISTER, dict(
                name="g", kind="gmm", spec=spec, model=coerce_gmm_model(gmm),
                strategy="factorized", key=7, predecessor=None,
            ))
            assert status == REPLY_OK and worker.books_agree()
            exec_payload = {"generation": 7, "op": "predict"}
            status, meta, (labels,) = worker.request(
                MSG_EXEC, exec_payload, (features, *fks)
            )
            assert status == REPLY_OK and meta.rows == features.shape[0]
            assert labels.dtype == np.int64
            full = worker.handle.residency.floats
            assert full > 0 and worker.books_agree()

            victims = np.unique(fks[0])[:3]
            status, dropped, _ = worker.request(
                MSG_INVALIDATE, {"relation": "R1", "rids": victims}
            )
            assert status == REPLY_OK and dropped == {"g": 3}
            assert worker.handle.residency.floats < full
            assert worker.books_agree()

            assert worker.request(MSG_STATS, {})[0] == REPLY_OK
            assert worker.books_agree()
            status, trimmed, _ = worker.request(MSG_TRIM, {"floats": 1})
            assert status == REPLY_OK and trimmed["evicted"] >= 1
            assert worker.books_agree()

            # A handler that changes the store before it raises: the
            # ERR reply still carries the store as the failure left it.
            before = worker.handle.residency
            execute = worker.worker.core.execute

            def fill_then_raise(*args, **kwargs):
                execute(*args, **kwargs)
                raise RuntimeError("after the caches filled")

            monkeypatch.setattr(worker.worker.core, "execute", fill_then_raise)
            status, error, body = worker.request(
                MSG_EXEC, exec_payload, (features, *fks)
            )
            assert status == REPLY_ERR and "after the caches filled" in error
            assert body == []
            assert worker.handle.residency.floats > before.floats
            assert worker.books_agree()
            monkeypatch.undo()

            status, _, _ = worker.request(
                MSG_UNREGISTER, {"generation": 7, "successor": None}
            )
            assert status == REPLY_OK
            assert worker.handle.residency == Residency()
            assert worker.books_agree()
        finally:
            worker.close()

    def test_an_unknown_message_is_an_error_reply_with_residency(self, db):
        worker = InProcessWorker(db)
        try:
            status, error, _ = worker.request(99, {})
            assert status == REPLY_ERR and "unknown message type" in error
            assert worker.books_agree()
        finally:
            worker.close()


def _counters(snapshot, name):
    return {
        dict(sample.labels)["worker"]: sample.value
        for sample in snapshot.samples if sample.name == name
    }


class TestWorkerCounters:
    def test_invalidated_rids_are_the_sum_of_the_invalidate_drops(
        self, db, star
    ):
        spec, features, fks = star
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        nn = fit_nn(db, spec, hidden_sizes=(4,), epochs=1, seed=1)
        relation = db["R1"]
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process",
            telemetry=True,
        ) as rt:
            rt.register_gmm("g", gmm, spec, strategy="factorized")
            rt.register_nn("n", nn, spec, strategy="factorized")
            rt.predict("g", features, fks)
            rt.predict("n", features, fks)
            cached = np.unique(fks[0])
            # Two updates, so the counter sums over INVALIDATE replies.
            for victims in (cached[:4], cached[4:]):
                positions = relation.positions_of_keys(victims)
                rows = relation.scan()[positions].copy()
                rows[:, 1:] += 1.0
                db.update_rows("R1", positions, rows)
            dropped = rt.runtime_stats().invalidated_rids
            counted = _counters(
                rt.telemetry.snapshot(), "repro_worker_invalidated_rids_total"
            )
        assert dropped == {"g": cached.size, "n": cached.size}
        assert sum(counted.values()) == sum(dropped.values())
        # Each first-dimension RID is cached by its affine worker only.
        for worker in (0, 1):
            assert counted[str(worker)] == 2 * np.sum(cached % 2 == worker)

    def test_concurrent_invalidations_lose_no_count(self, monkeypatch):
        """Updates may fan out from several threads at once, and each
        adds its drops to the same per-worker sums."""
        executor = object.__new__(ProcessExecutor)
        executor._closed, executor._models = False, {}
        executor.workers = [_WorkerHandle(i, None, None) for i in (0, 1)]
        monkeypatch.setattr(
            executor, "_broadcast",
            lambda mtype, payload: [{"g": 1}, {"g": 2, "n": 1}],
        )

        def invalidate_many():
            for _ in range(2000):
                executor.invalidate("R1", [0])

        threads = [threading.Thread(target=invalidate_many) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [h.invalidated_rids for h in executor.workers] == [
            8 * 2000, 8 * 2000 * 3
        ]

    def test_resident_floats_are_the_latest_replies(self, db, star):
        spec, features, fks = star
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process",
            telemetry=True,
        ) as rt:
            rt.register_gmm("g", gmm, spec, strategy="factorized")
            rt.predict("g", features, fks)
            gauges = _counters(
                rt.telemetry.snapshot(), "repro_worker_floats_resident"
            )
            held = rt._executor.worker_resident_floats()
            store = rt.runtime_stats().store
        assert [gauges["0"], gauges["1"]] == held
        assert sum(held) * 8 == store.bytes_resident > 0


class TestFailedExec:
    def test_a_failed_exec_raises_model_error_and_keeps_serving(
        self, db, star
    ):
        spec, features, fks = star
        gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        ) as rt:
            rt.register_gmm("g", gmm, spec)
            expected = rt.predict("g", features, fks)
            with pytest.raises(ModelError):
                rt.predict("g", features[:2], [fk[:2] * 0 + 10**6 for fk in fks])
            np.testing.assert_array_equal(
                rt.predict("g", features, fks), expected
            )
