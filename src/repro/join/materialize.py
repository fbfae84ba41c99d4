"""The materialized access path — Fig. 1(a).

M-GMM and M-NN first compute the join, write the denormalized table
``T`` to disk (paying ``|T|`` page writes once), then read ``T`` back in
batches every training pass.  This is the baseline every analyst uses
today and the reference point for the paper's speedups.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import JoinError
from repro.join.batches import Batch
from repro.join.bnl import (
    DEFAULT_BLOCK_PAGES,
    _block_starts,
    sids_and_targets,
)
from repro.join.spec import JoinSpec
from repro.join.stream import StreamingJoin
from repro.linalg.design import FactorizedDesign
from repro.storage.catalog import Database
from repro.storage.relation import Relation


def materialize_join(
    db: Database,
    spec: JoinSpec,
    name: str,
    *,
    block_pages: int = DEFAULT_BLOCK_PAGES,
    replace: bool = False,
) -> Relation:
    """Execute the join once and store the result as relation ``name``.

    Returns the new relation ``T(SID, [Y,] X_S, X_R1, …)``.  The join
    itself runs block-nested-loops (charged reads) and every output page
    is charged as a write, matching the M- cost model of Section V-A.
    The pass borrows the database's join index, like an S- fit's.
    """
    if name in db:
        if not replace:
            raise JoinError(
                f"relation {name!r} already exists; pass replace=True"
            )
        db.drop_relation(name)
    with StreamingJoin(db, spec, block_pages=block_pages) as stream:
        table = db.create_relation(name, stream.resolved.output_schema())
        for batch in stream.batches():
            columns = [batch.sids.astype(np.float64)[:, None]]
            if batch.targets is not None:
                columns.append(batch.targets[:, None])
            columns.append(batch.design.fact_block)
            table.append(np.concatenate(columns, axis=1))
    return table


class MaterializedTable:
    """Batched reader over a materialized join result.

    Mirrors the :class:`~repro.join.stream.StreamingJoin` interface so
    the learning algorithms are agnostic to where their batches come
    from: ``T``'s rows are the wide design, every dimension inlined.
    Each pass re-reads ``T`` from disk (charged), exactly as Algorithm 1
    reads batch ``i`` of ``T`` in lines 5/11/17.
    """

    def __init__(
        self,
        table: Relation,
        *,
        block_pages: int = DEFAULT_BLOCK_PAGES,
        shuffle: bool = False,
        seed: int = 0,
    ) -> None:
        if block_pages <= 0:
            raise JoinError(
                f"block_pages must be positive, got {block_pages}"
            )
        self.table = table
        self.block_pages = block_pages
        self.shuffle = shuffle
        self.seed = seed
        self._feature_positions = list(table.schema.feature_positions)

    @property
    def num_rows(self) -> int:
        return self.table.nrows

    def batches(self, epoch: int = 0) -> Iterator[Batch]:
        """One full pass over ``T``, batches with no dimension."""
        rng = (
            np.random.default_rng((self.seed, epoch))
            if self.shuffle
            else None
        )
        for first_page in _block_starts(
            self.table.npages, self.block_pages, self.shuffle, rng
        ):
            npages = min(self.block_pages, self.table.npages - first_page)
            rows = self.table.heap.read_pages(first_page, npages)
            if self.shuffle and rows.shape[0] > 1:
                rows = rows[rng.permutation(rows.shape[0])]
            sids, targets = sids_and_targets(self.table, rows)
            design = FactorizedDesign(
                rows[:, self._feature_positions], [], []
            )
            yield Batch(sids, design, targets)
