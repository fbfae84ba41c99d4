"""Row-version events: the catalog's change-notification channel.

Serving layers cache derived state keyed by dimension RIDs (partial
rows, buffer-pool pages); an in-place update to a dimension relation
silently invalidates that state.  The catalog therefore stamps every
relation with a monotonically increasing *row version* and, on each
update, emits a :class:`RowVersionEvent` naming the affected RIDs to
every subscriber — the serving runtime uses it to evict exactly those
partials from its caches.

Events are delivered synchronously on the updating thread, *after* the
pages have been written and the buffer pool invalidated, so a
subscriber that recomputes on notification always sees the new rows.
That ordering also covers reads in flight *during* the update: the
pool's invalidation detaches any in-flight read guard for the touched
pages and bumps their versions, so a racing cold read can return —
but never re-cache — pre-update bytes, and every page fetched by a
post-event recompute is fresh (see :mod:`repro.storage.buffer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class RowVersionEvent:
    """One change to a relation's rows (in-place update or append).

    ``rids`` holds the primary-key values of the affected rows (the heap
    row positions when the relation declares no key column) — the
    vocabulary serving caches are keyed by.  ``version`` is the
    relation's row version *after* this change; versions start at 0 for
    a never-changed relation and increase by 1 per call.

    ``kind`` distinguishes in-place updates (``"update"``) from row
    appends (``"append"``), so model maintainers can route the two to
    different delta paths (rank-k statistic updates vs mini-batch
    fold-in).  ``positions`` carries the affected heap row numbers when
    the emitter knows them — process workers use them to invalidate
    only the touched buffer-pool pages instead of dropping the whole
    relation.  An empty ``positions`` on a non-empty ``rids`` means the
    emitter could not name the rows' pages (subscribers fall back to
    conservative whole-relation invalidation).
    """

    relation: str
    rids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    version: int = 0
    kind: str = "update"
    positions: np.ndarray = field(
        default_factory=lambda: np.empty(0, np.int64)
    )

    def __post_init__(self) -> None:
        rids = np.asarray(self.rids).ravel().astype(np.int64)
        object.__setattr__(self, "rids", rids)
        positions = np.asarray(self.positions).ravel().astype(np.int64)
        object.__setattr__(self, "positions", positions)
        if self.kind not in ("update", "append"):
            raise ValueError(
                f"event kind must be 'update' or 'append', got {self.kind!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RowVersionEvent({self.relation!r}, kind={self.kind!r}, "
            f"rids={self.rids.tolist()}, version={self.version})"
        )
