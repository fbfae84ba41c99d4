"""Parent side of the process execution backend.

:class:`ProcessExecutor` owns ``num_workers`` worker *processes*
(:mod:`repro.runtime.procworker`) and one pipe to each.  It is a
:class:`~repro.serve.core.ServingCore` whose substrate primitives
cross a pipe — the registry, ``register`` / ``swap`` /
``unregister`` and the pin-run-record ``execute`` are the core's own:

* ``_build`` / ``_retire`` fan a registration out to (and back off)
  every worker, each of which runs the same core over a store in its
  own private memory;
* ``_run`` scatters one batch into RID-affine sub-batches and gathers
  the outputs by row index;
* invalidation, budget control and the stats readers broadcast and
  merge.

**One pipe frame each way per sub-batch.**  A frame is a fixed header,
a pickled payload and then raw array bytes (:func:`pack_message`):
the payload pickles the scalars (model generation, op) and each
array's dtype and shape, and the arrays themselves — an EXEC's fact
features then one int64 FK column per dimension, a reply's outputs
in their own dtype — follow unpickled, back to back, and are read
back as views over the received frame (:func:`unpack_message`).
Control messages (register/invalidate/stats) pickle small payloads;
models cross once, at registration.

**Deadlock-free by construction.**  The dispatcher is the only sender
of EXEC and keeps at most one outstanding per worker (every started
sub-batch is gathered before the next batch scatters), and whichever
thread awaits a worker's reply drains that worker's pipe for all
waiters.  So a large frame never waits on an unread large frame going
the other way.

**RID affinity.**  The runtime routes each request row to
``fk_0 % num_workers``, so every distinct RID of the first (largest)
dimension has its partial in exactly one worker's cache.  Further
dimensions may duplicate a partial across workers; the scatter key can
only follow one dimension (the same trade a distributed hash join
makes when it partitions on one key).

**Crash containment.**  Worker replies are routed through a per-worker
tagged mailbox (the dispatcher, the invalidation fan-out and a stats
sample may all await replies from one worker concurrently); a reply
wait detects a dead worker by liveness-polling rather than pipe EOF —
with ``fork`` start, sibling workers inherit each other's pipe ends,
so EOF alone is not a reliable death signal.  A dead worker fails only
the requests whose rows were routed to it (the runtime retries a
coalesced batch request-by-request, exactly like data-dependent
failures in thread mode).

**Budget governance.**  Workers run a
:class:`~repro.fx.store.PartialStore` with *no* bound of its own.
Every reply, OK or ERR, carries the worker store's
:class:`~repro.serve.cache.Residency` as it stands after the message,
and the worker's handle keeps the latest one.  After every gathered
batch the dispatcher reads those records (no extra IPC), plans
deficit-bounded trims (:func:`repro.fx.store.plan_trims`) and sends
``TRIM`` only to over-share workers.  A hot worker can therefore
hold most of the global budget while cold workers hold none — the
cross-process continuation of PR 5's "hot fingerprints take share from
cold ones".  Overshoot between sweeps is bounded by one batch's
inserts, as in thread mode, where each batch's governor sweep runs
after the batch.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing as mp
import pickle
import struct
import threading
import time
from dataclasses import replace

import numpy as np

from repro.errors import ModelError
from repro.fx.store import StoreStats, low_watermark, plan_trims
from repro.serve.cache import CacheStats, Residency
from repro.serve.core import (
    ExecMeta,
    RegisteredModel,
    ServingCore,
    budget_floats,
    collect_store,
)
from repro.serve.predictor import (
    _RequestValidator,
    coerce_gmm_model,
    coerce_nn_model,
)
from repro.storage.iostats import IOSnapshot

# -- wire protocol (shared with repro.runtime.procworker) ---------------------

MSG_READY = 0
MSG_REGISTER = 1
MSG_UNREGISTER = 2
MSG_EXEC = 3
MSG_INVALIDATE = 4
MSG_STATS = 5
MSG_TRIM = 6
MSG_SHUTDOWN = 7
MSG_CRASH = 8          # test hook: exit immediately without cleanup
REPLY_OK = 100
REPLY_ERR = 101

# (message type, request id, pickled payload bytes)
_HEADER = struct.Struct("<BQI")

_READY_TIMEOUT_S = 60.0
_REPLY_TIMEOUT_S = 120.0
_SHUTDOWN_TIMEOUT_S = 5.0
_POLL_S = 0.05

def pack_message(mtype: int, req_id: int, payload, arrays=()) -> bytes:
    """One pipe frame: the header, ``payload`` pickled together with
    each array's dtype and shape, then the arrays' raw bytes."""
    arrays = [np.ascontiguousarray(array) for array in arrays]
    pickled = pickle.dumps(
        (payload, [(array.dtype.str, array.shape) for array in arrays]),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return b"".join(
        [_HEADER.pack(mtype, req_id, len(pickled)), pickled, *arrays]
    )


def unpack_message(data: bytes):
    """``(mtype, req_id, payload, body)`` of one frame; ``body`` lists
    the frame's arrays as read-only views over ``data``."""
    mtype, req_id, size = _HEADER.unpack_from(data)
    offset = _HEADER.size + size
    payload, layout = pickle.loads(memoryview(data)[_HEADER.size:offset])
    body = []
    for dtype, shape in layout:
        array = np.frombuffer(
            data, dtype, count=math.prod(shape), offset=offset
        ).reshape(shape)
        offset += array.nbytes
        body.append(array)
    return mtype, req_id, payload, body


class WorkerDied(ModelError):
    """A worker process exited while owing replies."""


class _WorkerHandle:
    """One worker process: pipe, liveness, reply mailbox and the
    worker's books as of its latest reply."""

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.dead = False
        # The worker store's Residency, replaced by every reply; the
        # partial rows the worker dropped on dimension updates, summed
        # from its INVALIDATE replies by the executor.
        self.residency = Residency()
        self.invalidated_rids = 0
        self._send_lock = threading.Lock()
        # Tagged mailbox with a single designated receiver: whichever
        # waiter finds nobody draining the pipe drains it for everyone,
        # parking replies by request id.  This is what lets the
        # dispatcher, the invalidation fan-out and a stats sample all
        # await replies from this worker at once over one pipe.
        self._cond = threading.Condition()
        self._replies: dict[int, tuple[int, object, list]] = {}
        self._receiving = False

    def _mark_dead(self) -> None:
        with self._cond:
            self.dead = True
            self._cond.notify_all()

    def _died(self) -> WorkerDied:
        code = self.process.exitcode
        return WorkerDied(
            f"worker process {self.index} died"
            f"{f' (exit code {code})' if code is not None else ''} "
            "while owing replies; requests routed to it fail, other "
            "workers keep serving"
        )

    def _timed_out(self, timeout: float) -> WorkerDied:
        # A worker that blows the reply deadline cannot stay in
        # rotation: the next EXEC would queue behind the stalled one,
        # and the stalled one's eventual late reply would sit in the
        # mailbox forever.  Terminate it, then mark it dead (which also
        # wakes every other waiter here).
        try:
            self.process.terminate()
        except Exception:  # pragma: no cover - already reaped
            pass
        self._mark_dead()
        return WorkerDied(
            f"worker {self.index} did not reply within {timeout:g}s; "
            "terminated and removed from rotation"
        )

    def send(self, mtype: int, req_id: int, payload, arrays=()) -> None:
        data = pack_message(mtype, req_id, payload, arrays)
        with self._send_lock:
            if self.dead:
                raise self._died()
            try:
                self.conn.send_bytes(data)
            except (OSError, ValueError, BrokenPipeError):
                self._mark_dead()
                raise self._died() from None

    def recv_reply(self, req_id: int, timeout: float):
        deadline = time.monotonic() + timeout
        while True:
            with self._cond:
                while True:
                    reply = self._replies.pop(req_id, None)
                    if reply is not None:
                        return reply
                    if self.dead:
                        raise self._died()
                    if not self._receiving:
                        self._receiving = True
                        break       # become the designated receiver
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise self._timed_out(timeout)
                    self._cond.wait(min(remaining, _POLL_S * 4))
            try:
                self._drain_once(deadline, timeout)
            finally:
                with self._cond:
                    self._receiving = False
                    self._cond.notify_all()

    def _drain_once(self, deadline: float, timeout: float) -> None:
        """Receive pipe messages until any reply lands (or death)."""
        while True:
            try:
                if self.conn.poll(_POLL_S):
                    data = self.conn.recv_bytes()
                else:
                    # No data.  A dead worker cannot reply; with fork
                    # start siblings hold this pipe's write end open,
                    # so poll() never EOFs — liveness is the signal.
                    if not self.process.is_alive():
                        self._mark_dead()
                        return
                    if time.monotonic() > deadline:
                        raise self._timed_out(timeout)
                    continue
            except (EOFError, OSError):
                self._mark_dead()
                return
            mtype, req_id, (payload, residency), body = unpack_message(data)
            with self._cond:
                # Replies arrive in the order the worker handled its
                # messages, so the last one in is its store right now.
                self.residency = residency
                self._replies[req_id] = (mtype, payload, body)
                self._cond.notify_all()
            return


class ProcessExecutor(ServingCore):
    """Spawns and drives the worker processes (see module docstring).

    Must be constructed *before* the owning runtime starts any thread:
    with the default ``fork`` start method, forking a multi-threaded
    process risks inheriting locks mid-acquisition.
    """

    def __init__(self, db, config) -> None:
        directory = getattr(db, "directory", None)
        if directory is None:  # pragma: no cover - all Databases have one
            raise ModelError(
                "executor='process' needs a disk-backed Database"
            )
        # No parent-side store: every partial lives in a worker.
        super().__init__(db, None)
        self.config = config
        self.num_workers = config.num_workers
        self.budget_floats = budget_floats(config.memory_budget)
        self._closed = False
        # Times the parent governor tripped (summed worker residency
        # over budget), not rows trimmed — reported as
        # StoreStats.governor_sweeps.
        self.sweeps = 0
        self._last_samples: list[dict] = []
        self._req_ids = itertools.count(1)
        self._req_lock = threading.Lock()
        self.workers: list[_WorkerHandle] = []
        try:
            method = (
                "fork"
                if "fork" in mp.get_all_start_methods()
                else "spawn"
            )
            ctx = mp.get_context(method)
            for index in range(self.num_workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                # Import here keeps procworker out of thread-mode runs.
                from repro.runtime.procworker import worker_main

                process = ctx.Process(
                    target=worker_main,
                    args=(index, child_conn, str(directory), config),
                    name=f"repro-runtime-proc-{index}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self.workers.append(
                    _WorkerHandle(index, process, parent_conn)
                )
            for handle in self.workers:
                self._reply(handle, 0, _READY_TIMEOUT_S)
        except BaseException:
            self._shutdown()
            raise

    # -- plumbing ------------------------------------------------------------

    def _next_id(self) -> int:
        with self._req_lock:
            return next(self._req_ids)

    def _reply(
        self,
        handle: _WorkerHandle,
        req_id: int,
        timeout: float = _REPLY_TIMEOUT_S,
    ):
        """``(payload, body)`` of one awaited reply; a worker error
        raises :class:`~repro.errors.ModelError`."""
        mtype, payload, body = handle.recv_reply(req_id, timeout)
        if mtype == REPLY_ERR:
            raise ModelError(f"worker {handle.index}: {payload}")
        return payload, body

    def _request(
        self,
        handle: _WorkerHandle,
        mtype: int,
        payload,
        timeout: float = _REPLY_TIMEOUT_S,
    ):
        req_id = self._next_id()
        handle.send(mtype, req_id, payload)
        return self._reply(handle, req_id, timeout)[0]

    def _broadcast(self, mtype: int, payload) -> list:
        """Send to every live worker; collect replies in worker order.

        Raises the first worker error after all replies are gathered —
        later workers are never left with an un-received reply.
        """
        pending: list[tuple[_WorkerHandle, int] | None] = []
        for handle in self.workers:
            if handle.dead:
                pending.append(None)
                continue
            req_id = self._next_id()
            try:
                handle.send(mtype, req_id, payload)
            except WorkerDied:
                pending.append(None)
                continue
            pending.append((handle, req_id))
        replies, first_error = [], None
        for entry in pending:
            if entry is None:
                replies.append(None)
                continue
            handle, req_id = entry
            try:
                replies.append(self._reply(handle, req_id)[0])
            except ModelError as error:
                replies.append(None)
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return replies

    # -- control plane -------------------------------------------------------

    def _build(
        self, name, kind, spec, model, strategy, predecessor=None
    ) -> RegisteredModel:
        """Register the fit on every worker under a fresh generation;
        keep a validator locally.

        The model crosses the pipe once (its coerced, fitted form);
        each worker builds its own predictor and draws caches from
        its own store.  The parent keeps only what submit-time
        validation and scatter need: the resolved join (shapes,
        dimension names) and the network's output width — no dimension
        lookup, so registering reads no dimension page here.  A swap's
        replacement is a *fresh* worker-side generation, never an
        overwrite in place: one coalesced batch scatters sub-batches
        to several workers, and an in-place replace landing between
        two of them would serve a torn mix.
        """
        coerce = coerce_gmm_model if kind == "gmm" else coerce_nn_model
        validator = _RequestValidator(self.db, spec)
        generation = self._next_id()
        # The worker core's own ``register`` arguments, keyed by
        # generation; the predecessor travels as its generation too.
        replies = self._broadcast(
            MSG_REGISTER,
            dict(
                name=name, kind=kind, spec=spec, model=coerce(model),
                strategy=strategy, key=generation,
                predecessor=getattr(predecessor, "generation", None),
            ),
        )
        reply = next((r for r in replies if r is not None), None)
        if reply is None:
            raise ModelError(
                f"cannot register model {name!r}: all worker processes "
                "are dead"
            )
        registered = RegisteredModel(
            name=name, kind=kind, strategy=strategy,
            predictor=None, validator=validator,
            generation=generation, out_width=reply["out_width"],
            spec=spec,
        )
        if predecessor is not None:
            registered.continue_from(predecessor)
        return registered

    def _retire(self, registered: RegisteredModel, successor=None) -> None:
        if not self._closed:
            self._broadcast(
                MSG_UNREGISTER,
                {
                    "generation": registered.generation,
                    "successor": getattr(successor, "generation", None),
                },
            )

    def invalidate(self, relation, rids, positions=None) -> dict[str, int]:
        """Fan an invalidation out to every worker; merged drop counts.

        Every worker, not just the affine one: a dimension beyond the
        first is not affinity-routed, so any worker may cache its
        RIDs.  ``positions`` (heap row numbers, when the event knows
        them) let workers drop only the touched buffer-pool pages
        instead of the whole relation.
        """
        if self._closed:
            return {}
        payload = {"relation": relation, "rids": np.asarray(rids)}
        if positions is not None:
            payload["positions"] = np.asarray(positions)
        dropped: dict[str, int] = {}
        replies = self._broadcast(MSG_INVALIDATE, payload)
        for handle, reply in zip(self.workers, replies):
            for name, count in (reply or {}).items():
                dropped[name] = dropped.get(name, 0) + count
            # Updates may fan out from several threads at once.
            with handle._cond:
                handle.invalidated_rids += sum((reply or {}).values())
        for name, count in dropped.items():
            registered = self.get(name)
            if registered is not None:
                registered.stats.add_invalidated(count)
        return dropped

    def sample_stats(self) -> list[dict]:
        """One telemetry sample per live worker (dead workers: None)."""
        return self._broadcast(MSG_STATS, {})

    def _samples(self) -> list[dict]:
        """A fresh per-worker sample, or the last successful one once
        the executor is closed (or a worker died mid-sample), so
        post-close snapshots still report the final counters instead
        of raising."""
        if not self._closed:
            try:
                self._last_samples = [
                    sample for sample in self.sample_stats()
                    if sample is not None
                ]
            except ModelError:
                pass
        return self._last_samples

    def cache_stats(self, key) -> list[CacheStats]:
        return self.sample()[0].get(self.model(key).name, [])

    def sample(self):
        """Merge the worker samples (one STATS round-trip): per-model
        cache stats — each live registration's own worker-side
        generation, summed across workers — and the store totals."""
        samples = self._samples()
        cache_stats: dict[str, list[CacheStats]] = {}
        for name, registered in self.registry().items():
            for sample in samples:
                per_dim = sample["cache_stats"].get(registered.generation)
                if not per_dim:
                    continue
                merged = cache_stats.get(name)
                cache_stats[name] = list(per_dim) if merged is None else [
                    have + new for have, new in zip(merged, per_dim)
                ]
        store = sum(
            (sample["store"] for sample in samples),
            StoreStats(0, 0, 0, CacheStats()),
        )
        # The bound and the governor live in the parent, so the budget
        # and the sweep count are read here, not off any worker.
        return cache_stats, replace(
            store, capacity_floats=self.budget_floats,
            governor_sweeps=self.sweeps,
        )

    def collect(self, buffer) -> None:
        """Sample residency and invalidation counters off the workers'
        latest replies (no IPC from the collector path); the rows each
        worker executed are the runtime's ``WorkerStats``."""
        # Parent-side registrations hold no caches (they live in the
        # workers), so this contributes the dedup ratios only.
        self.collect_models(buffer)
        if self._closed:
            return
        held = Residency.total(handle.residency for handle in self.workers)
        collect_store(
            buffer, held.bytes, self.budget_floats, self.sweeps,
            # The record aggregates the compressed rungs into one field
            # and the transitions into one count each, so process mode
            # breaks residency down by tier *family* (compressed vs
            # spill) and exports the transition totals unlabeled.
            self.config.store_tiers and (
                held.compressed_bytes, held.spilled_bytes,
                {None: held.demotions}, {None: held.promotions},
            ),
        )
        for handle in self.workers:
            labels = {"worker": str(handle.index)}
            buffer.gauge(
                "repro_worker_floats_resident",
                handle.residency.floats,
                help="Budget floats charged in that worker's partial store",
                **labels,
            )
            buffer.counter(
                "repro_worker_invalidated_rids_total",
                handle.invalidated_rids,
                help="Partial rows this worker dropped on "
                     "dimension updates",
                **labels,
            )

    # -- the budget governor -------------------------------------------------

    def worker_resident_floats(self) -> list[int]:
        return [handle.residency.floats for handle in self.workers]

    def sweep_budget(self) -> int:
        """One deficit-bounded sweep over the workers' residency.

        Reads each worker's latest reply's record (no IPC), then TRIMs
        only the workers whose share must shrink.  Returns rows
        evicted.  No-op while within budget — the dispatcher calls
        this after every gathered batch, so the fast path must be two
        loads and a compare.
        """
        # One read of the bound: set_budget(None) may lift it mid-sweep.
        budget = self.budget_floats
        if budget is None:
            return 0
        resident = self.worker_resident_floats()
        if sum(resident) <= budget:
            return 0
        # Tripped: count the sweep once and trim to the low watermark
        # (the same policy the thread-mode store applies) so
        # steady-state overshoot of one batch's inserts doesn't re-trip
        # the governor every batch.
        self.sweeps += 1
        trims = plan_trims(resident, low_watermark(budget))
        evicted = 0
        for index, floats in enumerate(trims):
            if floats <= 0 or self.workers[index].dead:
                continue
            reply = self._request(
                self.workers[index], MSG_TRIM, {"floats": int(floats)}
            )
            evicted += reply["evicted"]
        return evicted

    def set_budget(self, floats: int | None) -> int:
        """Re-bound the global budget; sweeps immediately on tighten."""
        self.budget_floats = floats
        if floats is None:
            return 0
        return self.sweep_budget()

    # -- the data plane ------------------------------------------------------

    def start_subbatch(self, worker_index, generation, op, features, fks):
        """Send one sub-batch to its worker as one EXEC frame.

        Returns the request id to pass to :meth:`finish_subbatch`.
        """
        req_id = self._next_id()
        self.workers[worker_index].send(
            MSG_EXEC, req_id, {"generation": generation, "op": op},
            (features, *fks),
        )
        return req_id

    def finish_subbatch(self, worker_index: int, req_id: int):
        """Await one EXEC reply: ``(outputs, meta)``, the outputs a
        read-only view over the reply frame in the worker's own dtype,
        and the worker core's :class:`~repro.serve.core.ExecMeta`."""
        meta, (outputs,) = self._reply(self.workers[worker_index], req_id)
        return outputs, meta

    def _run(self, registered, op, features, fks, span):
        """Scatter one coalesced batch across the worker processes.

        Rows are routed by ``fk_0 % num_workers`` (RID affinity),
        framed to each target worker, executed there, and gathered
        back by row index, so worker completion order never moves an
        output.  A sub-batch runs its rows through BLAS kernels of
        another shape than the whole batch does in thread mode: GMM
        labels stay ``array_equal`` to thread mode's, NN outputs are
        ``array_equal`` when the batches match (one worker) and agree
        to rounding when they split.  A failure (bad data on one
        worker, or a dead worker) is raised once every started
        sub-batch has been drained; the runtime then retries request by request, so only
        the requests whose rows route to the failure are poisoned.
        """
        if op == "predict_all":
            raise ModelError(
                "predict_all streams the fact relation in-process; "
                "executor='process' serves request batches only"
            )
        rows = features.shape[0]
        affinity = fks[0] % self.num_workers
        tick = time.perf_counter()
        error: BaseException | None = None
        pending = []
        with span.child("scatter"):
            for worker in range(self.num_workers):
                indices = np.nonzero(affinity == worker)[0]
                if indices.size == 0:
                    continue
                try:
                    req_id = self.start_subbatch(
                        worker, registered.generation, op,
                        features[indices], [fk[indices] for fk in fks],
                    )
                except BaseException as scatter_error:
                    # Stop scattering, but fall through to the gather
                    # below with the sub-batches already started: each
                    # must be drained before the per-request retry
                    # sends its worker another EXEC, or the worker
                    # would owe two replies and the abandoned one
                    # would sit in its mailbox forever.
                    error = scatter_error
                    break
                pending.append((worker, indices, req_id))
        scatter_s = time.perf_counter() - tick
        outputs = None
        io = IOSnapshot()
        decisions, shares = [], []
        references = distinct = 0
        with span.child("gather"):
            for worker, indices, req_id in pending:
                # Always finish every started sub-batch, even after a
                # failure — a worker left owing a reply would corrupt
                # the next batch's mailbox accounting.
                try:
                    sub_out, meta = self.finish_subbatch(worker, req_id)
                except BaseException as sub_error:
                    error = error or sub_error
                    continue
                io = io + meta.io
                decisions.extend(meta.decisions)
                references += meta.references
                distinct += meta.distinct
                shares.append((worker, meta.rows, meta.elapsed))
                if outputs is None:
                    shape = (
                        (rows,) if sub_out.ndim == 1
                        else (rows, sub_out.shape[1])
                    )
                    outputs = np.empty(shape, dtype=sub_out.dtype)
                outputs[indices] = sub_out
        elapsed = time.perf_counter() - tick
        if error is not None:
            raise error
        if outputs is None:     # zero-row batch
            outputs = np.zeros((rows,))
        # The governor: residency came back with the replies, so the
        # within-budget fast path costs a few loads per batch.
        self.sweep_budget()
        return outputs, ExecMeta(
            rows, elapsed, io, decisions, references, distinct, shares,
            scatter_s, elapsed - scatter_s,
        )

    # -- test hooks & lifecycle ----------------------------------------------

    def crash_worker(self, worker_index: int) -> None:
        """Make one worker exit immediately (teardown tests only)."""
        handle = self.workers[worker_index]
        try:
            handle.send(MSG_CRASH, self._next_id(), {})
        except WorkerDied:
            return
        handle.process.join(_SHUTDOWN_TIMEOUT_S)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop the workers.  Idempotent."""
        if self._closed:
            return
        # Final sample first (post-close stats report the last
        # counters), then stop the workers.
        self._samples()
        self._shutdown()

    def _shutdown(self) -> None:
        self._closed = True
        for handle in self.workers:
            if handle.dead or not handle.process.is_alive():
                continue
            try:
                handle.send(MSG_SHUTDOWN, self._next_id(), {})
            except WorkerDied:
                continue
        for handle in self.workers:
            handle.process.join(_SHUTDOWN_TIMEOUT_S)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(_SHUTDOWN_TIMEOUT_S)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
