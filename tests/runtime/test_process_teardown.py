"""Process-backend teardown guarantees: worker crashes fail only the
requests routed to the dead worker, shared-memory segments never
outlive the runtime (explicit close *or* interpreter exit), and close
is idempotent."""

import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest

from repro.core.api import fit_gmm, serve_runtime
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.errors import ModelError
from repro.fx.shm import SEGMENT_PREFIX

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR),
    reason="teardown assertions inspect /dev/shm (POSIX shm)",
)


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def own_segments():
    """``/dev/shm`` entries created by *this* process (names embed the
    creating pid, so parallel test runs cannot interfere)."""
    marker = f"{SEGMENT_PREFIX}-{os.getpid()}-"
    return sorted(
        name for name in os.listdir(SHM_DIR) if name.startswith(marker)
    )


@pytest.fixture
def served(db):
    star = generate_star(
        db,
        StarSchemaConfig.binary(
            n_s=200, n_r=12, d_s=3, d_r=4, with_target=True, seed=7
        ),
    )
    gmm = fit_gmm(db, star.spec, n_components=2, max_iter=2, seed=1)
    fact = star.spec.resolve(db).fact
    rows = fact.scan()
    features = fact.project_features(rows)
    fks = np.column_stack(
        [
            rows[:, fact.schema.fk_position(d.relation)].astype(np.int64)
            for d in star.spec.dimensions
        ]
    )
    return star.spec, gmm, features, fks


class TestWorkerCrash:
    def test_crash_fails_only_the_requests_routed_to_the_dead_worker(
        self, db, served
    ):
        spec, gmm, features, fks = served
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        ) as rt:
            rt.register_gmm("g", gmm, spec)
            expected = rt.predict("g", features, fks)

            rt._executor.crash_worker(0)

            dead = fks[:, 0] % 2 == 0       # RIDs affine to worker 0
            with pytest.raises(ModelError, match="died"):
                rt.predict("g", features[dead], fks[dead])
            # Requests affine to the surviving worker keep serving,
            # with unchanged answers.
            alive = rt.predict("g", features[~dead], fks[~dead])
            np.testing.assert_array_equal(alive, expected[~dead])

    def test_mixed_batch_fails_only_the_dead_workers_rows(
        self, db, served
    ):
        spec, gmm, features, fks = served
        with serve_runtime(
            db, num_workers=2, max_wait_ms=5.0, max_batch_rows=512,
            executor="process",
        ) as rt:
            rt.register_gmm("g", gmm, spec)
            expected = rt.predict("g", features, fks)
            rt._executor.crash_worker(1)

            # One coalesced batch spanning both workers: the batch
            # fails wholesale, then the per-request retry fails exactly
            # the requests whose rows route to the dead worker.
            dead = fks[:, 0] % 2 == 1
            futures = [
                rt.submit("g", features[i:i + 20], fks[i:i + 20])
                for i in range(0, features.shape[0], 20)
            ]
            for index, future in enumerate(futures):
                lo, hi = index * 20, index * 20 + 20
                routed_dead = bool(dead[lo:hi].any())
                if routed_dead:
                    with pytest.raises(ModelError):
                        future.result(60.0)
                else:
                    np.testing.assert_array_equal(
                        future.result(60.0), expected[lo:hi]
                    )

    def test_mid_scatter_failure_drains_started_subbatches(
        self, db, served, monkeypatch
    ):
        """If scatter fails after some workers were sent an EXEC, the
        started sub-batches are still gathered before the failure
        propagates — a worker left owing a reply would have its task
        slab rewritten by the retry while the abandoned EXEC may still
        execute over it."""
        spec, gmm, features, fks = served
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        ) as rt:
            rt.register_gmm("g", gmm, spec)
            expected = rt.predict("g", features, fks)

            real = rt._executor.start_subbatch

            def flaky(worker, *args, **kwargs):
                if worker == 1:
                    raise ModelError("injected scatter failure")
                return real(worker, *args, **kwargs)

            monkeypatch.setattr(rt._executor, "start_subbatch", flaky)
            with pytest.raises(ModelError, match="injected"):
                rt.predict("g", features, fks)
            # Worker 0's sub-batch was started before the failure; it
            # must have been drained — no parked reply, nothing left
            # in the pipe.
            handle = rt._executor.workers[0]
            assert handle._replies == {}
            assert not handle.conn.poll(0.05)
            monkeypatch.undo()

            # And the drained worker keeps serving, bit-exact.
            mine = fks[:, 0] % 2 == 0
            alive = rt.predict("g", features[mine], fks[mine])
            np.testing.assert_array_equal(alive, expected[mine])

    def test_register_after_total_worker_loss_raises_model_error(
        self, db, served
    ):
        spec, gmm, _, _ = served
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        ) as rt:
            rt._executor.crash_worker(0)
            rt._executor.crash_worker(1)
            # One broadcast marks both handles dead (send or reply
            # fails, depending on how fast the pipe observes the exit).
            try:
                rt._executor.sample_stats()
            except ModelError:
                pass
            assert all(h.dead for h in rt._executor.workers)
            with pytest.raises(
                ModelError, match="all worker processes"
            ):
                rt.register_gmm("g", gmm, spec)

    def test_reply_timeout_terminates_and_removes_the_worker(self):
        """A stalled worker cannot stay in rotation: the timeout path
        terminates it (so it can no longer touch shared memory) and
        marks it dead, so later sends fail fast instead of rewriting
        its task slab under a possibly-running EXEC."""
        import multiprocessing as mp

        from repro.runtime.procpool import WorkerDied, _WorkerHandle

        class StalledProcess:
            def __init__(self):
                self.terminated = False

            def is_alive(self):
                return not self.terminated

            def terminate(self):
                self.terminated = True

            @property
            def exitcode(self):
                return -15 if self.terminated else None

        parent_conn, child_conn = mp.Pipe(duplex=True)
        try:
            handle = _WorkerHandle(0, StalledProcess(), parent_conn)
            with pytest.raises(WorkerDied, match="did not reply"):
                handle.recv_reply(7, timeout=0.3)
            assert handle.dead
            assert handle.process.terminated
            with pytest.raises(WorkerDied):
                handle.send(3, 8, {})
        finally:
            parent_conn.close()
            child_conn.close()

    def test_close_after_a_crash_leaves_no_segments(self, db, served):
        spec, gmm, features, fks = served
        rt = serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        )
        rt.register_gmm("g", gmm, spec)
        rt.predict("g", features, fks)
        rt._executor.crash_worker(0)
        rt.close()
        assert own_segments() == []


class TestSegmentLifecycle:
    def test_segments_exist_while_serving_and_vanish_on_close(
        self, db, served
    ):
        spec, gmm, features, fks = served
        rt = serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        )
        try:
            rt.register_gmm("g", gmm, spec)
            rt.predict("g", features, fks)
            live = own_segments()
            # The header + one task slab per worker.
            assert len(live) == 1 + 2
        finally:
            rt.close()
        assert own_segments() == []

    def test_clean_close_exits_workers_with_code_zero(self, db, served):
        """SHUTDOWN runs worker teardown twice (end of run() plus the
        entry point's finally); the second call must be a no-op — a
        non-idempotent shutdown would crash the worker on exit."""
        spec, gmm, features, fks = served
        rt = serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        )
        rt.register_gmm("g", gmm, spec)
        rt.predict("g", features, fks)
        rt.close()
        for handle in rt._executor.workers:
            assert handle.process.exitcode == 0

    def test_close_is_idempotent(self, db, served):
        spec, gmm, features, fks = served
        rt = serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        )
        rt.register_gmm("g", gmm, spec)
        rt.predict("g", features, fks)
        rt.close()
        rt.close()
        assert rt._executor.closed
        assert own_segments() == []

    def test_interpreter_exit_without_close_unlinks_segments(
        self, db, served, tmp_path
    ):
        """A runtime that is never closed must still not leak
        ``/dev/shm`` entries: the arena's atexit hook unlinks every
        owned segment when the owning interpreter exits."""
        spec, gmm, features, fks = served
        script = tmp_path / "leaky.py"
        script.write_text(
            "import os, warnings\n"
            "warnings.simplefilter('ignore')\n"
            "import numpy as np\n"
            "from repro.core.api import fit_gmm, serve_runtime\n"
            "from repro.data.synthetic import StarSchemaConfig, "
            "generate_star\n"
            "from repro.storage.catalog import Database\n"
            f"db = Database({str(tmp_path / 'leakdb')!r})\n"
            "star = generate_star(db, StarSchemaConfig.binary(\n"
            "    n_s=80, n_r=8, d_s=3, d_r=4, with_target=True, seed=3))\n"
            "gmm = fit_gmm(db, star.spec, n_components=2, max_iter=2, "
            "seed=1)\n"
            "fact = star.spec.resolve(db).fact\n"
            "rows = fact.scan()\n"
            "features = fact.project_features(rows)\n"
            "fks = [rows[:, fact.schema.fk_position(d.relation)]"
            ".astype(np.int64) for d in star.spec.dimensions]\n"
            "rt = serve_runtime(db, num_workers=2, max_wait_ms=0.0,\n"
            "                   executor='process')\n"
            "rt.register_gmm('g', gmm, star.spec)\n"
            "rt.predict('g', features, fks)\n"
            "print('PID', os.getpid())\n"
            "# exit without rt.close() / db.close()\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert result.returncode == 0, result.stderr
        child_pid = int(result.stdout.split("PID")[1].strip())
        marker = f"{SEGMENT_PREFIX}-{child_pid}-"
        leaked = [
            name for name in os.listdir(SHM_DIR)
            if name.startswith(marker)
        ]
        assert leaked == []

class TestTieredParity:
    """Thread and process executors must agree on tiered outcomes —
    and ``close()`` must reclaim every spill directory along with the
    shared-memory segments."""

    TIERS = ("float32", "spill")
    BUDGET = 64        # bytes — tight enough that every batch demotes

    @staticmethod
    def spill_dirs():
        root = tempfile.gettempdir()
        return sorted(
            name for name in os.listdir(root)
            if name.startswith("repro-spill-")
        )

    def run_tiered(self, db, served, executor):
        spec, gmm, features, fks = served
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor=executor,
            memory_budget=self.BUDGET, store_tiers=self.TIERS,
        ) as rt:
            rt.register_gmm("g", gmm, spec)
            labels = rt.predict("g", features, fks)
            # A second pass re-reads rows the first pass demoted.
            labels2 = rt.predict("g", features, fks)
            scores = rt.score("g", features, fks)
            store = rt.runtime_stats().store
            demoted = sum(store.tier_demotions.values())
        np.testing.assert_array_equal(labels, labels2)
        return labels, scores, demoted

    def test_executors_agree_on_tiered_outcomes(self, db, served):
        t_labels, t_scores, t_demoted = self.run_tiered(
            db, served, "thread"
        )
        p_labels, p_scores, p_demoted = self.run_tiered(
            db, served, "process"
        )
        # The budget actually exercised the ladder in both backends...
        assert t_demoted > 0
        assert p_demoted > 0
        # ...and the contract holds across them: labels bit-exact,
        # scores within a whisker (recompute paths batch rows
        # differently, so BLAS may round the last ulp differently).
        np.testing.assert_array_equal(t_labels, p_labels)
        np.testing.assert_allclose(t_scores, p_scores, rtol=1e-9)

    def test_tiered_matches_untiered_within_contract(self, db, served):
        from repro.fx.tiers import FLOAT32_SCORE_RTOL

        spec, gmm, features, fks = served
        with serve_runtime(db, num_workers=2, max_wait_ms=0.0) as rt:
            rt.register_gmm("g", gmm, spec)
            base_labels = rt.predict("g", features, fks)
            base_scores = rt.score("g", features, fks)
        labels, scores, demoted = self.run_tiered(db, served, "thread")
        assert demoted > 0
        np.testing.assert_array_equal(labels, base_labels)
        np.testing.assert_allclose(
            scores, base_scores, rtol=FLOAT32_SCORE_RTOL
        )

    def test_tiered_close_reclaims_spill_dirs_and_segments(
        self, db, served
    ):
        spec, gmm, features, fks = served
        before = self.spill_dirs()
        for executor in ("thread", "process"):
            rt = serve_runtime(
                db, num_workers=2, max_wait_ms=0.0, executor=executor,
                memory_budget=self.BUDGET, store_tiers=self.TIERS,
            )
            try:
                rt.register_gmm("g", gmm, spec)
                rt.predict("g", features, fks)
            finally:
                rt.close()
            rt.close()                 # tier teardown stays idempotent
            assert own_segments() == []
        # No spill directory born during either run survives close().
        assert self.spill_dirs() == before
