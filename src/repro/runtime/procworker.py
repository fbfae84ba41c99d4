"""Worker-process entry point for the process execution backend.

``worker_main`` is the target of every process the parent-side
:class:`~repro.runtime.procpool.ProcessExecutor` spawns.  A worker is
the same :class:`~repro.serve.core.ServingCore` every other serving
configuration runs, plus pipe framing:

* it opens its *own* :class:`~repro.storage.catalog.Database` over the
  shared on-disk directory (heap pages and the catalog are plain files;
  each worker keeps a private buffer pool over them — the OS page
  cache dedups the physical bytes);
* its core draws partial caches from a
  :class:`~repro.fx.store.PartialStore` of its own, in private
  memory; after every message the worker writes the store's
  :class:`~repro.serve.cache.Residency` into its row of the shared
  header segment, which is all the parent's budget governor reads;
* the message handlers only translate: ``EXEC`` wraps views into the
  task slab around ``core.execute`` (the pipe message carries only
  scalars — rows, widths, the slab name — the arrays never cross the
  pipe), ``INVALIDATE`` adds buffer-pool page invalidation to
  ``core.invalidate``, and registrations are keyed by the parent's
  *generation* so two fits of one name can be live while it swaps.

Because the parent scatters rows by ``fk_0 % num_workers``, each
worker only ever sees its own slice of the first dimension's RID
space: its caches hold disjoint first-dimension partials, which is
what makes N worker caches behave like one cache split N ways by RID,
not N redundant copies.

The worker never unlinks shared memory: segments are owned (and
unlinked) by the parent; on shutdown the worker clears its caches,
drops its views and detaches.  Errors inside a message handler are
reported back as ``REPLY_ERR`` with the traceback text — the parent
turns them into :class:`~repro.errors.ModelError` and retries the
batch request by request, exactly like thread-mode failures.
"""

from __future__ import annotations

import gc
import os
import traceback

import numpy as np

from repro.fx.dedup import distinct_values
from repro.fx.shm import HDR_INVALIDATED, ShmArena, header_view
from repro.fx.store import PartialStore
from repro.runtime.procpool import (
    MSG_CRASH,
    MSG_EXEC,
    MSG_INVALIDATE,
    MSG_REGISTER,
    MSG_SHUTDOWN,
    MSG_STATS,
    MSG_TRIM,
    MSG_UNREGISTER,
    REPLY_ERR,
    REPLY_OK,
    pack_message,
    task_views,
    unpack_message,
)
from repro.serve.core import ServingCore


class _Worker:
    def __init__(
        self, worker_id, num_workers, conn, directory, config, header_name,
    ) -> None:
        self.worker_id = worker_id
        self.num_workers = num_workers
        self.conn = conn
        self.directory = directory
        self.arena = ShmArena()
        header_seg = self.arena.attach(header_name)
        self.header = header_view(header_seg.buf, num_workers)[worker_id]
        # No bound of its own: the budget lives in the parent
        # (deficit-bounded TRIMs over the headers).  Per-worker
        # demotion ladder; each worker store owns its own spill
        # directory (created lazily, removed on close).
        self.store = PartialStore(tiers=config.store_tiers)
        self.db = None                  # opened on first REGISTER
        self.core = None
        self.task_seg = None            # re-attached when renamed
        self.running = True

    # -- handlers -------------------------------------------------------------

    def on_register(self, payload) -> dict:
        if self.core is None:
            # Deferred so relations registered after runtime creation
            # are present in the catalog file when it is first read.
            from repro.storage.catalog import Database

            self.db = Database(self.directory)
            self.core = ServingCore(self.db, self.store)
        predecessor = self.core.get(payload.pop("predecessor"))
        registered = self.core.register(**payload, predecessor=predecessor)
        return {"out_width": registered.out_width}

    def on_unregister(self, payload) -> dict:
        # Tolerant of a generation this worker never saw: the parent
        # also unregisters to roll a failed registration back.
        if self.core is not None and payload["generation"] in self.core:
            self.core.unregister(
                payload["generation"],
                self.core.get(payload["successor"]),
            )
        return {}

    def _task_views(self, payload):
        if self.task_seg is None or self.task_seg.name != payload["seg"]:
            # The parent outgrew (and replaced) the task slab; drop the
            # old attachment and map the new segment.
            if self.task_seg is not None:
                self.arena.release(self.task_seg.name)
            self.task_seg = self.arena.attach(payload["seg"])
        return task_views(
            self.task_seg.buf, payload["rows"], payload["d_s"],
            payload["q"], payload["out_width"],
        )

    def on_exec(self, payload) -> dict:
        features, fks, out = self._task_views(payload)
        outputs, meta = self.core.execute(
            payload["generation"], payload["op"], features, fks
        )
        outputs = np.asarray(outputs)
        if outputs.ndim == 1:
            out_width = 0
            # int64 labels round-trip exactly through float64 (cluster
            # counts are far below 2^53); the parent casts back.
            out[: outputs.size] = outputs
        else:
            out_width = outputs.shape[1]
            out.reshape(payload["rows"], out_width)[:] = outputs
        return {
            "out_width": out_width,
            "out_dtype": "i8" if outputs.dtype.kind == "i" else "f8",
            "meta": meta,
        }

    def on_invalidate(self, payload) -> dict:
        relation = payload["relation"]
        positions = payload.get("positions")
        dropped = (
            self.core.invalidate(relation, payload["rids"])
            if self.core is not None else {}
        )
        # This worker's buffer pool may cache the relation's pre-update
        # pages.  When the event names the touched heap rows, drop only
        # their pages; untouched pages stay resident so the next batch
        # re-reads only what actually changed.  An event without
        # positions falls back to dropping the whole relation
        # (correctness over precision).
        if self.db is not None:
            try:
                heap = self.db.relation(relation).heap
            except Exception:
                heap = None
            if heap is not None:
                if positions is not None and len(positions):
                    pages = distinct_values(
                        np.asarray(positions, dtype=np.int64)
                        // heap.rows_per_page
                    )
                    self.db.buffer_pool.invalidate_pages(heap, pages)
                else:
                    self.db.buffer_pool.invalidate(heap)
        total = sum(dropped.values())
        if total:
            self.header[HDR_INVALIDATED] += total
        return dropped

    def on_stats(self, payload) -> dict:
        registry = self.core.registry() if self.core is not None else {}
        return {
            "store": self.store.stats(),
            # Keyed by generation: two fits of one name are live in a
            # worker while the parent swaps.
            "cache_stats": {
                generation: registered.cache_stats()
                for generation, registered in registry.items()
            },
        }

    def on_trim(self, payload) -> dict:
        return {"evicted": self.store.trim(payload["floats"])}

    def shutdown(self) -> None:
        if self.store is None:      # already shut down — idempotent
            return
        self.running = False
        if self.core is not None:
            self.core.close()
            self.core = None
        if self.db is not None:
            self.db.close()
            self.db = None
        # Drop every long-lived view into the segments (the header row,
        # the task slab's) so detaching can actually release the
        # mappings instead of BufferError-ing at exit.  store.close()
        # breaks the store <-> cache governor cycle deterministically;
        # the collection sweeps whatever transitive cycles (predictor
        # internals, planner state) still pin views.
        self.store.close()
        self.store = None
        self.header = None
        gc.collect()
        # Detach only — the parent owns (and unlinks) every segment.
        self.arena.close()

    # -- the loop -------------------------------------------------------------

    _HANDLERS = {
        MSG_REGISTER: on_register,
        MSG_UNREGISTER: on_unregister,
        MSG_EXEC: on_exec,
        MSG_INVALIDATE: on_invalidate,
        MSG_STATS: on_stats,
        MSG_TRIM: on_trim,
    }

    def run(self) -> None:
        self.conn.send_bytes(pack_message(REPLY_OK, 0, {}))
        while self.running:
            try:
                data = self.conn.recv_bytes()
            except (EOFError, OSError):
                break                   # parent is gone
            mtype, req_id, payload = unpack_message(data)
            if mtype == MSG_SHUTDOWN:
                break
            if mtype == MSG_CRASH:
                os._exit(3)             # teardown tests: die uncleanly
            handler = self._HANDLERS.get(mtype)
            try:
                if handler is None:
                    raise ValueError(f"unknown message type {mtype}")
                reply = pack_message(
                    REPLY_OK, req_id, handler(self, payload)
                )
            except BaseException:
                reply = pack_message(
                    REPLY_ERR, req_id,
                    {"error": traceback.format_exc()},
                )
            # Before the reply: the parent sweeps the budget off the
            # headers as soon as a batch's replies are in.
            held = self.store.residency()
            self.header[:len(held)] = held
            try:
                self.conn.send_bytes(reply)
            except (OSError, BrokenPipeError):  # pragma: no cover
                break
        self.shutdown()


def worker_main(
    worker_id, num_workers, conn, directory, config, header_name,
) -> None:
    """Process entry point: build the worker, serve until SHUTDOWN."""
    worker = _Worker(
        worker_id, num_workers, conn, directory, config, header_name,
    )
    try:
        worker.run()
    finally:
        # A no-op after a clean run() (shutdown already ran there);
        # real teardown only when run() raised — and then a teardown
        # failure should be loud on the worker's stderr, not masked.
        worker.shutdown()
