"""The database catalog: a directory of relations sharing I/O accounting.

A :class:`Database` owns a directory on disk, a shared
:class:`~repro.storage.iostats.IOStats`, and an optional
:class:`~repro.storage.buffer.BufferPool`.  Algorithms receive a database
handle and resolve relations by name, exactly as the paper's client code
resolves tables in PostgreSQL.  It also keeps one
:class:`~repro.join.bnl.JoinIndex`: the one for the join it last
trained on.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
from pathlib import Path

import numpy as np

from typing import Callable

from repro.errors import ModelError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.events import RowVersionEvent
from repro.storage.heapfile import (
    DEFAULT_PAGE_SIZE_BYTES,
    HeapFile,
    checked_positions,
)
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation
from repro.storage.schema import Schema

_CATALOG_FILE = "_catalog.json"


class Database:
    """A named collection of relations stored under one directory."""

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        page_size_bytes: int = DEFAULT_PAGE_SIZE_BYTES,
        buffer_pages: int = 1024,
    ) -> None:
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro_db_")
            self._owns_directory = True
        else:
            self._owns_directory = False
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.page_size_bytes = page_size_bytes
        self.stats = IOStats()
        self.buffer_pool = BufferPool(buffer_pages)
        self._relations: dict[str, Relation] = {}
        self._row_versions: dict[str, int] = {}
        self._subscribers: list[Callable[[RowVersionEvent], None]] = []
        # Serializes whole update cycles (RMW + pool write-through +
        # version bump + notification) across updater threads, so
        # concurrent updates to one page cannot lose writes and row
        # versions/events stay in emission order.
        self._update_lock = threading.Lock()
        # The index of the join last trained on, lent to one access at
        # a time; dropped as soon as a joined relation changes.
        self._join_index = None
        self._join_index_lock = threading.Lock()
        self._load_catalog()

    # -- persistence ---------------------------------------------------------

    @property
    def _catalog_path(self) -> Path:
        return self.directory / _CATALOG_FILE

    def _load_catalog(self) -> None:
        if not self._catalog_path.exists():
            return
        with open(self._catalog_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        for name, schema_dict in payload["relations"].items():
            schema = Schema.from_dict(schema_dict)
            heap = HeapFile.open(
                self.directory / f"{name}.tbl",
                stats=self.stats,
                stats_name=name,
            )
            self._relations[name] = Relation(name, schema, heap)

    def _save_catalog(self) -> None:
        payload = {
            "relations": {
                name: relation.schema.to_dict()
                for name, relation in self._relations.items()
            }
        }
        with open(self._catalog_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    # -- relation management ---------------------------------------------

    def create_relation(
        self, name: str, schema: Schema, rows: np.ndarray | None = None
    ) -> Relation:
        """Create and register a relation, loading ``rows`` if given."""
        if name in self._relations:
            raise StorageError(f"relation {name!r} already exists")
        relation = Relation.create(
            name,
            schema,
            self.directory,
            rows,
            page_size_bytes=self.page_size_bytes,
            stats=self.stats,
        )
        self._relations[name] = relation
        self._save_catalog()
        return relation

    def drop_relation(self, name: str, *, missing_ok: bool = False) -> None:
        """Remove a relation and delete its file."""
        relation = self._relations.pop(name, None)
        if relation is None:
            if missing_ok:
                return
            raise StorageError(f"no relation {name!r} to drop")
        self._drop_join_index(relation)
        self.buffer_pool.invalidate(relation.heap)
        relation.drop()
        self._save_catalog()

    # -- the join index ----------------------------------------------------

    def take_join_index(self, key: tuple):
        """Lend out the held join index if it was built for ``key``
        (:attr:`~repro.join.bnl.JoinIndex.key`), emptying the slot;
        ``None`` otherwise."""
        with self._join_index_lock:
            held = self._join_index
            if held is None or held.key != key:
                return None
            self._join_index = None
            return held

    def keep_join_index(self, index) -> None:
        """Hold ``index`` in place of any other, unless it no longer
        describes the rows."""
        with self._join_index_lock:
            if index.current():
                self._join_index = index

    def _drop_join_index(self, relation: Relation | None = None) -> None:
        """Drop the held index if it joins ``relation`` (whatever it
        joins, without one)."""
        with self._join_index_lock:
            held = self._join_index
            if held is not None and (
                relation is None
                or any(joined is relation for joined in held.relations)
            ):
                self._join_index = None

    # -- in-place updates and change notification ---------------------------

    def subscribe(
        self, callback: Callable[[RowVersionEvent], None]
    ) -> None:
        """Register a callback for :class:`RowVersionEvent` notifications.

        Callbacks run synchronously on the updating thread, after pages
        are written and the buffer pool's resident copies patched, so
        they always observe the post-update rows.
        """
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def unsubscribe(
        self, callback: Callable[[RowVersionEvent], None]
    ) -> None:
        """Remove a previously registered callback (missing ok)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def row_version(self, name: str) -> int:
        """How many times ``name`` has been updated in place (0 = never)."""
        self.relation(name)  # raise on unknown relations
        return self._row_versions.get(name, 0)

    def update_rows(
        self,
        name: str,
        positions: np.ndarray,
        rows: np.ndarray,
    ) -> RowVersionEvent:
        """Overwrite rows of ``name`` in place and notify subscribers.

        ``positions`` are heap row numbers (use
        :meth:`~repro.storage.relation.Relation.positions_of_keys` to go
        from primary-key values); ``rows`` are full replacement rows.
        Primary-key values must not change: the relation's
        :meth:`~repro.storage.relation.Relation.key_index` is only ever
        extended by appends, never re-scanned on update.

        The emitted event carries the updated rows' primary-key values
        (heap positions for keyless relations), which is what
        partial-result caches are keyed by.
        """
        relation = self.relation(name)
        positions = np.asarray(positions).ravel()
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.ndim != 2 or rows.shape[1] != relation.schema.width:
            raise StorageError(
                f"rows for {name!r} must be (n, {relation.schema.width}), "
                f"got {rows.shape}"
            )
        if rows.shape[0] != positions.size:
            raise StorageError(
                f"{positions.size} positions but {rows.shape[0]} rows"
            )
        positions = checked_positions(positions, relation.nrows)
        keyed = relation.schema.key_column is not None
        with self._update_lock:
            if keyed and positions.size:
                at = relation.schema.key_position
                # Through the pool: the pages an update touches are
                # usually resident (the serving path just read them),
                # and a miss charges exactly the one read it performs.
                current = self.buffer_pool.read_rows(relation.heap, positions)
                if not np.array_equal(current[:, at], rows[:, at]):
                    raise StorageError(
                        f"update to {name!r} would change primary-key "
                        "values; serving lookups index rows by key"
                    )
            relation.update_rows(positions, rows)
            # Heap first, then the pool: a read that saw the old bytes
            # is discarded by its version check or patched in its frame.
            self.buffer_pool.write_through(relation.heap, positions, rows)
            version = self._row_versions.get(name, 0) + 1
            self._row_versions[name] = version
            self._drop_join_index(relation)
            event = RowVersionEvent(
                relation=name, version=version, kind="update",
                rids=relation.project_keys(rows) if keyed else positions,
                positions=positions,
            )
            self._notify(event)
        return event

    def append_rows(self, name: str, rows: np.ndarray) -> RowVersionEvent:
        """Append rows to ``name`` and notify subscribers.

        The append shares the update path's ordering contract: the heap
        grows and the trailing buffer-pool page is dropped before the
        event fires, so a subscriber that re-scans on notification sees
        the new rows.  The emitted event carries ``kind="append"`` with
        the new rows' primary-key values (heap positions for keyless
        relations), letting model maintainers fold the rows in via
        mini-batch steps instead of refitting from scratch.
        """
        relation = self.relation(name)
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.ndim != 2 or rows.shape[1] != relation.schema.width:
            raise StorageError(
                f"rows for {name!r} must be (n, {relation.schema.width}), "
                f"got {rows.shape}"
            )
        keyed = relation.schema.key_column is not None
        with self._update_lock:
            if keyed and rows.shape[0]:
                # A key repeated within the batch is refused too: once
                # written, no key index over the relation could be built.
                try:
                    relation.key_index().extended(relation.project_keys(rows))
                except ModelError:
                    raise StorageError(
                        f"append to {name!r} would duplicate primary-key "
                        "values; serving lookups index rows by key"
                    ) from None
            first = relation.nrows
            # The last page before the append may gain rows in place;
            # drop its cached copy before the write becomes visible.
            if first and first % relation.heap.rows_per_page:
                self.buffer_pool.invalidate_pages(
                    relation.heap,
                    np.asarray([first // relation.heap.rows_per_page]),
                )
            relation.append(rows)
            positions = np.arange(first, relation.nrows, dtype=np.int64)
            version = self._row_versions.get(name, 0) + 1
            self._row_versions[name] = version
            self._drop_join_index(relation)
            event = RowVersionEvent(
                relation=name, version=version, kind="append",
                rids=relation.project_keys(rows) if keyed else positions,
                positions=positions,
            )
            self._notify(event)
        return event

    def _notify(self, event: RowVersionEvent) -> None:
        """Fan an event out to every subscriber, exception-isolated.

        Runs inside the update lock so events reach subscribers in
        version order even under concurrent writers; subscribers must
        therefore never call back into ``update_rows``/``append_rows``.
        The rows are already durable, so every subscriber must hear
        about them even if an earlier one fails — the first failure
        re-raises only after full fan-out.
        """
        first_error = None
        for callback in list(self._subscribers):
            try:
                callback(event)
            except Exception as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise StorageError(
                f"no relation {name!r}; have {sorted(self._relations)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    @property
    def relation_names(self) -> list[str]:
        return sorted(self._relations)

    # -- lifecycle ---------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero I/O counters and drop the buffer pool contents."""
        self.stats.reset()
        self.buffer_pool.clear()

    def collect(self, buffer) -> None:
        """Sample the buffer pool and page I/O counters into a
        telemetry snapshot."""
        self.buffer_pool.collect(buffer)
        io = self.stats.snapshot()
        buffer.counter(
            "repro_pages_read_total", io.pages_read,
            help="Heap pages read (buffer-pool misses only)",
        )
        buffer.counter(
            "repro_pages_written_total", io.pages_written,
            help="Heap pages written",
        )

    def close(self, *, delete: bool | None = None) -> None:
        """Release resources; delete the directory if we created it.

        Also detaches every update subscriber, so services that were
        never explicitly closed do not outlive their database.
        """
        if delete is None:
            delete = self._owns_directory
        self._subscribers.clear()
        self._drop_join_index()
        self._relations.clear()
        self.buffer_pool.clear()
        if delete and self.directory.exists():
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Database({str(self.directory)!r}, "
            f"relations={self.relation_names})"
        )
