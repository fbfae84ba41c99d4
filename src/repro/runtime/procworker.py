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
  memory; every reply, OK or ERR, carries the store's
  :class:`~repro.serve.cache.Residency` as it stands after the
  message, which is all the parent's budget governor reads;
* the message handlers only translate: ``EXEC`` runs ``core.execute``
  over the features and FK columns its frame carries as raw bytes and
  replies with the outputs the same way, ``INVALIDATE`` adds
  buffer-pool page invalidation to ``core.invalidate``, and
  registrations are keyed by the parent's *generation* so two fits of
  one name can be live while it swaps.

Because the parent scatters rows by ``fk_0 % num_workers``, each
worker only ever sees its own slice of the first dimension's RID
space: its caches hold disjoint first-dimension partials, which is
what makes N worker caches behave like one cache split N ways by RID,
not N redundant copies.

On shutdown the worker closes its core, its database and its store.
Errors inside a message handler are reported back as ``REPLY_ERR``
with the traceback text — the parent turns them into
:class:`~repro.errors.ModelError` and retries the batch request by
request, exactly like thread-mode failures.
"""

from __future__ import annotations

import os
import traceback

import numpy as np

from repro.fx.dedup import distinct_values
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
    unpack_message,
)
from repro.serve.core import ServingCore


class _Worker:
    def __init__(self, worker_id, conn, directory, config) -> None:
        self.worker_id = worker_id
        self.conn = conn
        self.directory = directory
        # No bound of its own: the budget lives in the parent
        # (deficit-bounded TRIMs over the replies' residency).
        # Per-worker demotion ladder; each worker store owns its own
        # spill directory (created lazily, removed on close).
        self.store = PartialStore(tiers=config.store_tiers)
        self.db = None                  # opened on first REGISTER
        self.core = None
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

    def on_exec(self, payload, body):
        """The reply payload and arrays: the core's
        :class:`~repro.serve.core.ExecMeta` and the outputs."""
        features, *fks = body
        outputs, meta = self.core.execute(
            payload["generation"], payload["op"], features, fks
        )
        return meta, (outputs,)

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
        self.store.close()
        self.store = None

    # -- the loop -------------------------------------------------------------

    _HANDLERS = {
        MSG_REGISTER: on_register,
        MSG_UNREGISTER: on_unregister,
        MSG_INVALIDATE: on_invalidate,
        MSG_STATS: on_stats,
        MSG_TRIM: on_trim,
    }

    def frame(self, mtype, req_id, payload, arrays=()) -> bytes:
        """One reply frame, with the store's residency as it stands
        now — after the message, whether it succeeded or not."""
        return pack_message(
            mtype, req_id, (payload, self.store.residency()), arrays
        )

    def run(self) -> None:
        self.conn.send_bytes(self.frame(REPLY_OK, 0, {}))
        while self.running:
            try:
                data = self.conn.recv_bytes()
            except (EOFError, OSError):
                break                   # parent is gone
            mtype, req_id, payload, body = unpack_message(data)
            if mtype == MSG_SHUTDOWN:
                break
            if mtype == MSG_CRASH:
                os._exit(3)             # teardown tests: die uncleanly
            try:
                if mtype == MSG_EXEC:
                    result, arrays = self.on_exec(payload, body)
                elif mtype in self._HANDLERS:
                    result, arrays = self._HANDLERS[mtype](self, payload), ()
                else:
                    raise ValueError(f"unknown message type {mtype}")
                reply = self.frame(REPLY_OK, req_id, result, arrays)
            except BaseException:
                reply = self.frame(REPLY_ERR, req_id, traceback.format_exc())
            try:
                self.conn.send_bytes(reply)
            except (OSError, BrokenPipeError):  # pragma: no cover
                break
        self.shutdown()


def worker_main(worker_id, conn, directory, config) -> None:
    """Process entry point: build the worker, serve until SHUTDOWN."""
    worker = _Worker(worker_id, conn, directory, config)
    try:
        worker.run()
    finally:
        # A no-op after a clean run() (shutdown already ran there);
        # real teardown only when run() raised — and then a teardown
        # failure should be loud on the worker's stderr, not masked.
        worker.shutdown()
