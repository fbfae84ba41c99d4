"""The streaming (join-on-the-fly) access path — Fig. 1(b).

S-GMM and S-NN never materialize the join result: every training pass
re-executes the block-nested-loops join and feeds each joined batch to
the model with every dimension inlined.  I/O per pass is the join cost;
compute per pass is identical to the materialized baseline because
every joined tuple is fully expanded.  (What a pass learns from key
columns alone is replayed, not recomputed —
:class:`~repro.join.bnl.JoinIndex`.)
"""

from __future__ import annotations

from typing import Iterator

from repro.join.batches import Batch, block_batch
from repro.join.bnl import JoinAccess


class StreamingJoin(JoinAccess):
    """Re-joins the base relations on the fly, one pass per call
    (constructor: :class:`~repro.join.bnl.JoinAccess`)."""

    def batches(self, epoch: int = 0) -> Iterator[Batch]:
        """One full pass over the join result, every dimension inlined."""
        for block in self.blocks(epoch):
            yield block_batch(self.resolved, block, inline=True)
