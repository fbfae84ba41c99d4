"""Parent side of the process execution backend.

:class:`ProcessExecutor` owns ``num_workers`` worker *processes*
(:mod:`repro.runtime.procworker`), the shared-memory segments they
execute over (:mod:`repro.fx.shm`), and the control pipes between
them.  It is a :class:`~repro.serve.core.ServingCore` whose substrate
primitives cross a pipe — the registry, ``register`` / ``swap`` /
``unregister`` and the pin-run-record ``execute`` are the core's own:

* ``_build`` / ``_retire`` fan a registration out to (and back off)
  every worker, each of which runs the same core over a store in its
  own private memory;
* ``_run`` scatters one batch into RID-affine sub-batches and gathers
  the outputs by row index;
* invalidation, budget control and the stats readers broadcast and
  merge.

**The task channel is pickle-free for arrays.**  A sub-batch's fact
features, foreign keys and outputs travel through a per-worker *task
slab* (one shm segment, grown geometrically when a batch outgrows it);
the pipe message carries only scalars — model generation, op, row count,
widths and the slab's segment name.  Both sides derive the identical
slab layout (features, then one int64 FK column per dimension, then
the float64 output region) from those scalars, so no offsets cross the
wire either.  Control messages (register/invalidate/stats) pickle
small payloads; models cross once, at registration.

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
:class:`~repro.fx.store.PartialStore` with *no* bound of its own; each
writes its residency into its row of the one shared header segment,
and after every gathered batch the dispatcher reads the headers
(plain shared-memory loads, no IPC),
plans deficit-bounded trims (:func:`repro.fx.shm.plan_trims`) and
sends ``TRIM`` only to over-share workers.  A hot worker can therefore
hold most of the global budget while cold workers hold none — the
cross-process continuation of PR 5's "hot fingerprints take share from
cold ones".  Overshoot between sweeps is bounded by one batch's
inserts, as in thread mode, where each batch's governor sweep runs
after the batch.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import pickle
import struct
import threading
import time
from dataclasses import replace

import numpy as np

from repro.errors import ModelError
from repro.fx.shm import (
    HDR_FLOATS_RESIDENT,
    HDR_INVALIDATED,
    ShmArena,
    header_nbytes,
    header_residency,
    header_view,
    plan_trims,
)
from repro.fx.store import StoreStats, low_watermark
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

_HEADER = struct.Struct("<BQ")     # (message type, request id)

_FLOAT_BYTES = 8
_READY_TIMEOUT_S = 60.0
_REPLY_TIMEOUT_S = 120.0
_SHUTDOWN_TIMEOUT_S = 5.0
_POLL_S = 0.05

_INITIAL_TASK_BYTES = 1 * 1024 * 1024


def pack_message(mtype: int, req_id: int, payload) -> bytes:
    return _HEADER.pack(mtype, req_id) + pickle.dumps(payload)


def unpack_message(data: bytes):
    mtype, req_id = _HEADER.unpack_from(data)
    return mtype, req_id, pickle.loads(data[_HEADER.size:])


def task_layout(rows: int, d_s: int, q: int, out_width: int):
    """(fk offset, out offset, total bytes) of one task slab frame.

    Derived identically on both sides from the EXEC scalars: features
    ``(rows, d_s)`` float64 first, then ``q`` int64 FK columns, then
    the float64 output region (``max(out_width, 1)`` values per row —
    1-D outputs use width 0 on the wire but still occupy one column).
    """
    fk_offset = rows * d_s * _FLOAT_BYTES
    out_offset = fk_offset + q * rows * 8
    total = out_offset + rows * max(out_width, 1) * _FLOAT_BYTES
    return fk_offset, out_offset, total


def task_views(buf, rows: int, d_s: int, q: int, out_width: int):
    """``(features, fks, out)`` views over one task slab frame: the
    parent writes the first two and reads the third, the worker the
    reverse."""
    fk_offset, out_offset, _ = task_layout(rows, d_s, q, out_width)
    features = np.frombuffer(
        buf, dtype=np.float64, count=rows * d_s
    ).reshape(rows, d_s)
    fks = [
        np.frombuffer(
            buf, dtype=np.int64, count=rows,
            offset=fk_offset + position * rows * 8,
        )
        for position in range(q)
    ]
    out = np.frombuffer(
        buf, dtype=np.float64, count=rows * max(out_width, 1),
        offset=out_offset,
    )
    return features, fks, out


def _write_task(buf, features, fks, out_width: int) -> None:
    """Copy one sub-batch's inputs into a task slab frame.

    A function of its own so the slab views die with its frame: the
    EXEC send that follows can raise, and a traceback holding views
    into the segment would pin its mapping past ``close()``.
    """
    feature_view, fk_views, _ = task_views(
        buf, *features.shape, len(fks), out_width
    )
    feature_view[:] = features
    for view, fk in zip(fk_views, fks):
        view[:] = fk


class WorkerDied(ModelError):
    """A worker process exited while owing replies."""


class _WorkerHandle:
    """One worker process: pipe, liveness, task slab, reply mailbox."""

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.task_seg = None           # set by the executor
        self.dead = False
        self._send_lock = threading.Lock()
        # Tagged mailbox with a single designated receiver: whichever
        # waiter finds nobody draining the pipe drains it for everyone,
        # parking replies by request id.  This is what lets the
        # dispatcher, the invalidation fan-out and a stats sample all
        # await replies from this worker at once over one pipe.
        self._cond = threading.Condition()
        self._replies: dict[int, tuple[int, object]] = {}
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
        # rotation: the next batch would rewrite its task slab while
        # the stalled EXEC may still be executing over it, and its
        # eventual late reply would sit in the mailbox forever.
        # Terminate it so it can no longer touch shared memory, then
        # mark it dead (which also wakes every other waiter here).
        try:
            self.process.terminate()
        except Exception:  # pragma: no cover - already reaped
            pass
        self._mark_dead()
        return WorkerDied(
            f"worker {self.index} did not reply within {timeout:g}s; "
            "terminated and removed from rotation"
        )

    def send(self, mtype: int, req_id: int, payload) -> None:
        data = pack_message(mtype, req_id, payload)
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
            mtype, req_id, payload = unpack_message(data)
            with self._cond:
                self._replies[req_id] = (mtype, payload)
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
        # Times the parent governor tripped (sum of headers over
        # budget), not rows trimmed — reported as
        # StoreStats.governor_sweeps.
        self.sweeps = 0
        self._last_samples: list[dict] = []
        self._req_ids = itertools.count(1)
        self._req_lock = threading.Lock()
        self.arena = ShmArena()
        try:
            header_seg = self.arena.create(
                "hdr", header_nbytes(self.num_workers)
            )
            self.headers = header_view(header_seg.buf, self.num_workers)
            self.headers[:] = 0
            method = (
                "fork"
                if "fork" in mp.get_all_start_methods()
                else "spawn"
            )
            ctx = mp.get_context(method)
            self.workers: list[_WorkerHandle] = []
            for index in range(self.num_workers):
                task_seg = self.arena.create(
                    f"task{index}", _INITIAL_TASK_BYTES
                )
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                # Import here keeps procworker out of thread-mode runs.
                from repro.runtime.procworker import worker_main

                process = ctx.Process(
                    target=worker_main,
                    args=(
                        index,
                        self.num_workers,
                        child_conn,
                        str(directory),
                        config,
                        header_seg.name,
                    ),
                    name=f"repro-runtime-proc-{index}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                handle = _WorkerHandle(index, process, parent_conn)
                handle.task_seg = task_seg
                self.workers.append(handle)
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
        mtype, payload = handle.recv_reply(req_id, timeout)
        if mtype == REPLY_ERR:
            raise ModelError(
                f"worker {handle.index}: {payload.get('error')}"
            )
        return payload

    def _request(
        self,
        handle: _WorkerHandle,
        mtype: int,
        payload,
        timeout: float = _REPLY_TIMEOUT_S,
    ):
        req_id = self._next_id()
        handle.send(mtype, req_id, payload)
        return self._reply(handle, req_id, timeout)

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
                replies.append(self._reply(handle, req_id))
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
        for reply in self._broadcast(MSG_INVALIDATE, payload):
            for name, count in (reply or {}).items():
                dropped[name] = dropped.get(name, 0) + count
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
        """Sample residency and invalidation counters straight off the
        shared-memory headers (no IPC from the collector path); the
        rows each worker executed are the runtime's ``WorkerStats``."""
        # Parent-side registrations hold no caches (they live in the
        # workers), so this contributes the dedup ratios only.
        self.collect_models(buffer)
        # close() nulls the header view before unlinking the segment,
        # so snapshot it once and re-check it — a close() racing this
        # sampling tick must not leave us dereferencing None.
        headers = self.headers
        if self._closed or headers is None:
            return
        held = Residency.total(map(header_residency, headers))
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
        for index in range(self.num_workers):
            labels = {"worker": str(index)}
            buffer.gauge(
                "repro_worker_floats_resident",
                int(headers[index, HDR_FLOATS_RESIDENT]),
                help="Budget floats charged in that worker's partial store",
                **labels,
            )
            buffer.counter(
                "repro_worker_invalidated_rids_total",
                int(headers[index, HDR_INVALIDATED]),
                help="Partial rows this worker dropped on "
                     "dimension updates",
                **labels,
            )

    # -- the budget governor -------------------------------------------------

    def worker_resident_floats(self) -> list[int]:
        return [
            int(self.headers[index, HDR_FLOATS_RESIDENT])
            for index in range(self.num_workers)
        ]

    def sweep_budget(self) -> int:
        """One deficit-bounded sweep over the per-worker headers.

        Reads residency straight from shared memory (no IPC), then
        TRIMs only the workers whose share must shrink.  Returns rows
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

    def _ensure_task_capacity(
        self, handle: _WorkerHandle, nbytes: int
    ):
        seg = handle.task_seg
        if seg.size >= nbytes:
            return seg
        grown = max(seg.size * 2, nbytes)
        new_seg = self.arena.create(f"task{handle.index}", grown)
        # The worker still maps the old segment until its next EXEC
        # names the new one; unlinking now is safe (POSIX keeps the
        # mapping alive) and keeps /dev/shm bounded to one task slab
        # per worker.
        self.arena.release(seg.name)
        handle.task_seg = new_seg
        return new_seg

    def start_subbatch(
        self, worker_index, generation, op, features, fks, out_width,
    ) -> int:
        """Write one sub-batch into the worker's task slab, send EXEC.

        Returns the request id to pass to :meth:`finish_subbatch`.
        Only the dispatcher calls this, so one task slab per worker is
        enough — the next sub-batch for this worker is only written
        after the previous one's outputs were gathered.
        """
        handle = self.workers[worker_index]
        rows, d_s = features.shape
        q = len(fks)
        seg = self._ensure_task_capacity(
            handle, task_layout(rows, d_s, q, out_width)[2]
        )
        _write_task(seg.buf, features, fks, out_width)
        req_id = self._next_id()
        handle.send(
            MSG_EXEC,
            req_id,
            {
                "generation": generation,
                "op": op,
                "rows": rows,
                "d_s": d_s,
                "q": q,
                "out_width": out_width,
                "seg": seg.name,
            },
        )
        return req_id

    def finish_subbatch(
        self, worker_index: int, req_id: int, rows: int, d_s: int, q: int,
    ):
        """Await one EXEC reply and copy its outputs out of the slab.

        Returns ``(outputs, meta)`` (the worker core's
        :class:`~repro.serve.core.ExecMeta`); outputs are already
        detached from the slab (copied), so the slab is free for the
        next sub-batch.
        """
        handle = self.workers[worker_index]
        reply = self._reply(handle, req_id)
        out_width = reply["out_width"]
        outputs = task_views(
            handle.task_seg.buf, rows, d_s, q, out_width
        )[2].copy()
        if out_width:
            outputs = outputs.reshape(rows, out_width)
        if reply["out_dtype"] == "i8":
            outputs = outputs.astype(np.int64)
        return outputs, reply["meta"]

    def _run(self, registered, op, features, fks, span):
        """Scatter one coalesced batch across the worker processes.

        Rows are routed by ``fk_0 % num_workers`` (RID affinity),
        written into each target worker's shared task slab, executed
        there, and gathered back by row index.  Because every row's output is
        computed independently and lands at its own index, the merged
        outputs are bit-identical to thread mode regardless of worker
        completion order.  A failure (bad data on one worker, or a
        dead worker) is raised once every started sub-batch has been
        drained; the runtime then retries request by request, so only
        the requests whose rows route to the failure are poisoned.
        """
        if op == "predict_all":
            raise ModelError(
                "predict_all streams the fact relation in-process; "
                "executor='process' serves request batches only"
            )
        rows = features.shape[0]
        out_width = (
            registered.out_width
            if registered.kind == "nn" and op == "predict"
            else 0
        )
        d_s, q = features.shape[1], len(fks)
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
                        features[indices],
                        [fk[indices] for fk in fks], out_width,
                    )
                except BaseException as scatter_error:
                    # Stop scattering, but fall through to the gather
                    # below with the sub-batches already started: each
                    # must be drained before the per-request retry may
                    # rewrite its worker's task slab — an abandoned
                    # EXEC still executing over a rewritten slab would
                    # silently corrupt the surviving requests' inputs
                    # and outputs.
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
                    sub_out, meta = self.finish_subbatch(
                        worker, req_id, int(indices.size), d_s, q
                    )
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
        # The governor: residency is read straight off the headers, so
        # the within-budget fast path costs a few loads per batch.
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
        """Stop the workers, then unlink every shm segment.  Idempotent."""
        if self._closed:
            return
        # Final sample first (post-close stats report the last
        # counters), then stop the workers and unlink every shared
        # segment — the no-leaked-/dev/shm guarantee.
        self._samples()
        self._shutdown()

    def _shutdown(self) -> None:
        self._closed = True
        for handle in getattr(self, "workers", []):
            if handle.dead or not handle.process.is_alive():
                continue
            try:
                handle.send(MSG_SHUTDOWN, self._next_id(), {})
            except WorkerDied:
                continue
        for handle in getattr(self, "workers", []):
            handle.process.join(_SHUTDOWN_TIMEOUT_S)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(_SHUTDOWN_TIMEOUT_S)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        # Drop the long-lived header view so the segment's buffer has
        # no exports left — otherwise SharedMemory.__del__ reports
        # BufferError noise at interpreter exit.
        self.headers = None
        # Unlinking last: a worker that was mid-batch at SHUTDOWN may
        # touch its mappings until it exits; mappings survive unlink.
        self.arena.close()
