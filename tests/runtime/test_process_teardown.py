"""Process-backend teardown guarantees: a dead worker leaves the
rotation and the survivors serve every later request (a batch in
flight on it is retried on them), with none left every request fails
fast, a runtime creates no ``/dev/shm`` entry, no worker process
outlives the runtime (explicit close *or* interpreter exit), and close
is idempotent."""

import multiprocessing as mp
import os
import time
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest

from repro.core.api import fit_gmm, serve_runtime
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.errors import ModelError
from repro.runtime import procworker
from repro.runtime.procpool import _REPLY_TIMEOUT_S, WorkerDied

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


def shm_entries() -> set[str]:
    """The ``/dev/shm`` listing: a test diffs one taken before the
    runtime against one taken after."""
    return set(os.listdir(SHM_DIR))


def alive(pid: int) -> bool:
    """Whether ``pid`` names a running (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


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


def owed_nothing(executor) -> bool:
    """No reply parked in any mailbox, none unread in a live pipe."""
    return all(
        handle._replies == {}
        and (handle.dead or not handle.conn.poll(0.05))
        for handle in executor.workers
    )


class TestWorkerCrash:
    @pytest.mark.parametrize("crashed", [0, 1])
    def test_after_a_crash_every_request_is_served(
        self, db, served, crashed
    ):
        """Whichever worker dies, the next batch it would have taken
        goes to the other one."""
        spec, gmm, features, fks = served
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        ) as rt:
            rt.register_gmm("g", gmm, spec)
            chunks = range(0, features.shape[0], 20)
            expected = [
                rt.predict("g", features[i:i + 20], fks[i:i + 20])
                for i in chunks
            ]

            rt._executor.crash_worker(crashed)

            # One at a time, then all in flight at once, so both
            # dispatchers check a worker out.
            for i, answer in zip(chunks, expected):
                np.testing.assert_array_equal(
                    rt.predict("g", features[i:i + 20], fks[i:i + 20]),
                    answer,
                )
            futures = [
                rt.submit("g", features[i:i + 20], fks[i:i + 20])
                for i in chunks
            ]
            for future, answer in zip(futures, expected):
                np.testing.assert_array_equal(future.result(60.0), answer)
            assert not rt._executor.workers[1 - crashed].dead

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(),
        reason="the workers must inherit the patched handler",
    )
    def test_a_batch_in_flight_on_a_dying_worker_is_retried(
        self, db, served, tmp_path, monkeypatch
    ):
        """The first worker sent a coalesced batch (more rows than one
        request) dies on it; the runtime's per-request retry serves
        every one of its requests on the survivor."""
        spec, gmm, features, fks = served
        with serve_runtime(db, num_workers=2, max_wait_ms=0.0) as rt:
            rt.register_gmm("g", gmm, spec)
            expected = rt.predict("g", features, fks)
        died = tmp_path / "died"
        on_exec = procworker._Worker.on_exec

        def dies_on_a_coalesced_batch(worker, payload, body):
            if body[0].shape[0] > 20:
                # Only the first worker to get one: O_EXCL is atomic.
                os.close(os.open(died, os.O_CREAT | os.O_EXCL))
                os._exit(3)
            return on_exec(worker, payload, body)

        # Forked workers inherit the patch.
        monkeypatch.setattr(
            procworker._Worker, "on_exec", dies_on_a_coalesced_batch
        )
        with serve_runtime(
            db, num_workers=2, max_wait_ms=50.0, max_batch_rows=512,
            executor="process",
        ) as rt:
            rt.register_gmm("g", gmm, spec)
            futures = [
                (i, rt.submit("g", features[i:i + 20], fks[i:i + 20]))
                for i in range(0, features.shape[0], 20)
            ]
            for i, future in futures:
                np.testing.assert_array_equal(
                    future.result(60.0), expected[i:i + 20]
                )
            assert died.exists()
            assert sum(h.dead for h in rt._executor.workers) == 1
            assert owed_nothing(rt._executor)

    def test_with_every_worker_dead_requests_fail_fast(self, db, served):
        spec, gmm, features, fks = served
        rt = serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        )
        try:
            rt.register_gmm("g", gmm, spec)
            rt.predict("g", features, fks)
            rt._executor.crash_worker(0)
            rt._executor.crash_worker(1)
            for _ in range(3):
                start = time.monotonic()
                with pytest.raises(ModelError):
                    rt.predict(
                        "g", features, fks, timeout=_REPLY_TIMEOUT_S
                    )
                assert time.monotonic() - start < _REPLY_TIMEOUT_S
            assert all(h.dead for h in rt._executor.workers)
        finally:
            rt.close()
        assert not any(
            alive(handle.process.pid) for handle in rt._executor.workers
        )

    def test_a_failed_send_leaves_no_reply_owed(self, db, served):
        """The worker next in line for a batch is dead before its
        send: the send fails, no EXEC went out and none is owed, and
        the batch is served by the other worker."""
        spec, gmm, features, fks = served
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        ) as rt:
            rt.register_gmm("g", gmm, spec)
            expected = rt.predict("g", features, fks)
            executor = rt._executor
            victim = executor._idle[-1]         # the next checkout
            failed = []
            send = victim.send

            def recorded(*args, **kwargs):
                try:
                    return send(*args, **kwargs)
                except WorkerDied as error:
                    failed.append(error)
                    raise

            victim.send = recorded
            executor.crash_worker(victim.index)
            np.testing.assert_array_equal(
                rt.predict("g", features, fks), expected
            )
            assert len(failed) == 1 and victim.dead
            assert owed_nothing(executor)

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
        terminates it and marks it dead, so later sends fail fast
        instead of queueing behind a possibly-running EXEC."""
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
        before = shm_entries()
        rt = serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        )
        rt.register_gmm("g", gmm, spec)
        rt.predict("g", features, fks)
        rt._executor.crash_worker(0)
        rt.close()
        assert shm_entries() - before == set()


class TestRuntimeLifecycle:
    def test_a_process_runtime_creates_no_dev_shm_entry(self, db, served):
        spec, gmm, features, fks = served
        before = shm_entries()
        rt = serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        )
        try:
            rt.register_gmm("g", gmm, spec)
            rt.predict("g", features, fks)
            # Sub-batches travel over the pipes: nothing is mapped.
            assert shm_entries() - before == set()
        finally:
            rt.close()
        assert shm_entries() - before == set()

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
        before = shm_entries()
        rt = serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process"
        )
        rt.register_gmm("g", gmm, spec)
        rt.predict("g", features, fks)
        rt.close()
        rt.close()
        assert rt._executor.closed
        assert shm_entries() - before == set()
        assert not any(
            alive(handle.process.pid) for handle in rt._executor.workers
        )

    def test_interpreter_exit_without_close_leaves_no_worker_alive(
        self, tmp_path
    ):
        """A runtime that is never closed must still not leave a
        worker behind: the workers are daemons, which the owning
        interpreter stops and reaps as it exits."""
        before = shm_entries()
        script = tmp_path / "leaky.py"
        script.write_text(
            "import warnings\n"
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
            "print('PIDS', *[h.process.pid for h in rt._executor.workers])\n"
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
        workers = [int(pid) for pid in result.stdout.split("PIDS")[1].split()]
        assert len(workers) == 2
        assert [pid for pid in workers if alive(pid)] == []
        assert shm_entries() - before == set()


class TestTieredParity:
    """Thread and process executors must agree on tiered outcomes —
    and ``close()`` must reclaim every spill directory, leaving
    ``/dev/shm`` as it found it."""

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
        before, shm_before = self.spill_dirs(), shm_entries()
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
            assert shm_entries() - shm_before == set()
        # No spill directory born during either run survives close().
        assert self.spill_dirs() == before
