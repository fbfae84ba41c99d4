"""Relations: a schema bound to an on-disk heap file.

A :class:`Relation` is the unit the join operators and learning
algorithms work with.  It exposes role-aware accessors (key column,
foreign keys, feature matrix, target vector) on top of paged reads, so
every byte an algorithm touches is visible to the I/O accounting.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import SchemaError, StorageError
from repro.linalg.groupsum import KeyIndex
from repro.storage.heapfile import DEFAULT_PAGE_SIZE_BYTES, HeapFile
from repro.storage.iostats import IOStats
from repro.storage.schema import ColumnRole, Schema


class Relation:
    """A named, schema-typed table stored in a paged heap file."""

    def __init__(self, name: str, schema: Schema, heap: HeapFile) -> None:
        if heap.ncols != schema.width:
            raise SchemaError(
                f"heap width {heap.ncols} != schema width {schema.width} "
                f"for relation {name!r}"
            )
        self.name = name
        self.schema = schema
        self.heap = heap
        # (index, rows it covers), swapped as one reference: concurrent
        # callers may each extend it, and none ever sees a torn pair.
        self._key_index: tuple[KeyIndex, int] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        name: str,
        schema: Schema,
        directory: str | Path,
        rows: np.ndarray | None = None,
        *,
        page_size_bytes: int = DEFAULT_PAGE_SIZE_BYTES,
        stats: IOStats | None = None,
    ) -> "Relation":
        """Create a relation file under ``directory`` and load ``rows``."""
        path = Path(directory) / f"{name}.tbl"
        heap = HeapFile.create(
            path,
            schema.width,
            page_size_bytes=page_size_bytes,
            stats=stats,
            stats_name=name,
        )
        relation = cls(name, schema, heap)
        if rows is not None:
            relation.append(rows)
        return relation

    def append(self, rows: np.ndarray) -> None:
        """Append rows, validating width against the schema."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.schema.width:
            raise StorageError(
                f"rows for {self.name!r} must be (n, {self.schema.width}), "
                f"got {rows.shape}"
            )
        self.heap.append(rows)

    def update_rows(self, positions: np.ndarray, rows: np.ndarray) -> None:
        """Overwrite existing rows in place (read-modify-write per page).

        Callers that keep derived state (buffer pools, partial caches)
        must be told — prefer :meth:`~repro.storage.catalog.Database.
        update_rows`, which invalidates and notifies.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.schema.width:
            raise StorageError(
                f"rows for {self.name!r} must be (n, {self.schema.width}), "
                f"got {rows.shape}"
            )
        self.heap.update_rows(positions, rows)

    def positions_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Heap row numbers holding the given primary-key values, by
        :meth:`key_index` (a :class:`~repro.errors.ModelError` on
        dangling keys)."""
        return self.key_index().codes(
            np.asarray(keys).ravel().astype(np.int64)
        )

    def key_index(self) -> KeyIndex:
        """The primary-key → heap-row index: the first call scans and
        sorts the key column, later ones return it, first merging in
        the keys of rows appended since (their pages alone are read).
        Keys never change in place — ``Database.update_rows`` refuses
        that — so the heap's row count says what the index covers.
        Keys in ``[0, DIRECT_SPAN)`` also get a direct-address map
        (:meth:`KeyIndex.addressed`), so a probe is one ``take``."""
        if self._key_index is None:
            # The scan outlives the index build, so what is kept lands
            # past its block and a later scan reuses that hole whole.
            rows = self.scan()
            self._key_index = (
                KeyIndex(self.project_keys(rows)).addressed(), len(rows)
            )
        index, covered = self._key_index
        if covered < self.heap.nrows:
            tail = self.heap.read_rows(np.arange(covered, self.heap.nrows))
            index = index.extended(self.project_keys(tail))
            self._key_index = (index, covered + len(tail))
        return index

    def drop(self) -> None:
        """Delete the backing file."""
        self.heap.delete()

    # -- geometry ------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return self.heap.nrows

    @property
    def npages(self) -> int:
        return self.heap.npages

    def __len__(self) -> int:
        return self.nrows

    # -- scans -------------------------------------------------------------

    def scan(self) -> np.ndarray:
        """Read the entire relation (charged as a full page scan)."""
        return self.heap.read_all()

    def iter_pages(self) -> Iterator[np.ndarray]:
        return self.heap.iter_pages()

    def iter_blocks(self, pages_per_block: int) -> Iterator[np.ndarray]:
        """Iterate in blocks of pages — the outer unit of a BNL join."""
        return self.heap.iter_page_blocks(pages_per_block)

    # -- role-aware projections (each is a full scan) -----------------------

    def keys(self) -> np.ndarray:
        """Primary-key values as int64 (full scan)."""
        position = self.schema.key_position
        return self.scan()[:, position].astype(np.int64)

    def foreign_keys_of(self, references: str | None = None) -> np.ndarray:
        """Foreign-key values as int64 (full scan)."""
        position = self.schema.fk_position(references)
        return self.scan()[:, position].astype(np.int64)

    def features(self) -> np.ndarray:
        """The feature matrix (full scan, columns in schema order)."""
        positions = list(self.schema.feature_positions)
        return self.scan()[:, positions]

    def targets(self) -> np.ndarray:
        """The target vector (full scan)."""
        position = self.schema.target_position
        return self.scan()[:, position]

    # -- static projections on in-memory blocks (no extra I/O) --------------

    def project_features(self, rows: np.ndarray) -> np.ndarray:
        """Select this schema's feature columns from already-read rows.

        The copy is column-major (NumPy indexes the listed columns
        first): ``result.T`` is the C-ordered, feature-major view the
        training kernels read (:class:`~repro.linalg.design.
        FactorizedDesign`), and ``result.take(rows, axis=0)`` would
        first copy the whole block.
        """
        return rows[:, list(self.schema.feature_positions)]

    def project_keys(self, rows: np.ndarray) -> np.ndarray:
        return rows[:, self.schema.key_position].astype(np.int64)

    def project_foreign_keys(
        self, rows: np.ndarray, references: str | None = None
    ) -> np.ndarray:
        return rows[:, self.schema.fk_position(references)].astype(np.int64)

    def project_targets(self, rows: np.ndarray) -> np.ndarray:
        return rows[:, self.schema.target_position]

    def has_role(self, role: ColumnRole) -> bool:
        return any(column.role is role for column in self.schema.columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Relation({self.name!r}, nrows={self.nrows}, "
            f"width={self.schema.width}, npages={self.npages})"
        )
