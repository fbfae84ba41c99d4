"""Page-level I/O accounting.

The paper's cost analysis (Section V-A) is expressed in page I/Os:
materializing algorithms pay ``|T|`` writes plus ``p * iter * |T|`` reads,
while streaming/factorized algorithms pay ``p * iter`` joins that each read
``|R| + |R| / BlockSize * |S|`` pages (``p = 3`` in the paper, ``1`` in
``fx.costs.COUNT_TABLE``).  To make those formulas measurable rather than
merely analytic, every page the storage engine reads or writes is recorded
in an :class:`IOStats` shared by all relations of a ``Database``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass(frozen=True)
class IOSnapshot:
    """An immutable point-in-time copy of I/O counters.

    Subtracting two snapshots gives the I/O performed between them.
    """

    pages_read: int = 0
    pages_written: int = 0
    reads_by_relation: dict[str, int] = field(default_factory=dict)
    writes_by_relation: dict[str, int] = field(default_factory=dict)

    def __add__(self, other: "IOSnapshot") -> "IOSnapshot":
        """Combine two I/O deltas (e.g. accumulated across requests)."""
        reads = dict(self.reads_by_relation)
        for name, count in other.reads_by_relation.items():
            reads[name] = reads.get(name, 0) + count
        writes = dict(self.writes_by_relation)
        for name, count in other.writes_by_relation.items():
            writes[name] = writes.get(name, 0) + count
        return IOSnapshot(
            pages_read=self.pages_read + other.pages_read,
            pages_written=self.pages_written + other.pages_written,
            reads_by_relation=reads,
            writes_by_relation=writes,
        )

    def __sub__(self, earlier: "IOSnapshot") -> "IOSnapshot":
        reads = {
            name: count - earlier.reads_by_relation.get(name, 0)
            for name, count in self.reads_by_relation.items()
            if count - earlier.reads_by_relation.get(name, 0)
        }
        writes = {
            name: count - earlier.writes_by_relation.get(name, 0)
            for name, count in self.writes_by_relation.items()
            if count - earlier.writes_by_relation.get(name, 0)
        }
        return IOSnapshot(
            pages_read=self.pages_read - earlier.pages_read,
            pages_written=self.pages_written - earlier.pages_written,
            reads_by_relation=reads,
            writes_by_relation=writes,
        )

    @property
    def total_pages(self) -> int:
        return self.pages_read + self.pages_written


class IOStats:
    """Mutable page I/O counters with per-relation breakdown.

    Recording and snapshotting are lock-guarded so concurrent serving
    workers (:mod:`repro.runtime`) never lose increments to racing
    read-modify-write cycles.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pages_read = 0
        self._pages_written = 0
        self._reads_by_relation: dict[str, int] = {}
        self._writes_by_relation: dict[str, int] = {}

    @property
    def pages_read(self) -> int:
        return self._pages_read

    @property
    def pages_written(self) -> int:
        return self._pages_written

    def record_read(self, relation: str, pages: int = 1) -> None:
        """Record ``pages`` page reads attributed to ``relation``."""
        if pages < 0:
            raise ValueError(f"cannot record negative page reads: {pages}")
        with self._lock:
            self._pages_read += pages
            self._reads_by_relation[relation] = (
                self._reads_by_relation.get(relation, 0) + pages
            )

    def record_write(self, relation: str, pages: int = 1) -> None:
        """Record ``pages`` page writes attributed to ``relation``."""
        if pages < 0:
            raise ValueError(f"cannot record negative page writes: {pages}")
        with self._lock:
            self._pages_written += pages
            self._writes_by_relation[relation] = (
                self._writes_by_relation.get(relation, 0) + pages
            )

    def reads_for(self, relation: str) -> int:
        return self._reads_by_relation.get(relation, 0)

    def writes_for(self, relation: str) -> int:
        return self._writes_by_relation.get(relation, 0)

    def snapshot(self) -> IOSnapshot:
        """Return an immutable copy of the current counters."""
        with self._lock:
            return IOSnapshot(
                pages_read=self._pages_read,
                pages_written=self._pages_written,
                reads_by_relation=dict(self._reads_by_relation),
                writes_by_relation=dict(self._writes_by_relation),
            )

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            self._pages_read = 0
            self._pages_written = 0
            self._reads_by_relation.clear()
            self._writes_by_relation.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IOStats(pages_read={self._pages_read}, "
            f"pages_written={self._pages_written})"
        )
