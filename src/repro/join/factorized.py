"""The factorized access path — Fig. 1(c).

F-GMM and F-NN read the base relations exactly like the streaming path
(same block-nested-loops schedule, same I/O), but never expand the
joined tuples: each batch keeps the dimension features at their
*distinct* rows together with fact→dimension codes, packaged as a
:class:`~repro.linalg.design.FactorizedDesign`.  All reuse the paper
derives (Eq. 9–24, Section VI-A1) operates on this representation.

The factorization itself is not private to this module: the block's
:class:`~repro.fx.dedup.DedupPlan` (built on the first pass of a fit in
:mod:`repro.join.bnl`, replayed after) supplies both the distinct
dimension rows and — via :meth:`~repro.fx.dedup.DimensionDedup.
group_index` — the memoized :class:`~repro.linalg.groupsum.GroupIndex`
every grouped reduction runs on.  Dimension blocks therefore hold
exactly the distinct RIDs the batch references, in sorted-RID order —
the same rows a serving partial cache would key, which is what lets
training and serving share one dedup machinery.
"""

from __future__ import annotations

from typing import Iterator

from repro.join.batches import Batch, block_batch
from repro.join.bnl import JoinAccess


class FactorizedJoin(JoinAccess):
    """Streams the join result in factorized batches, one pass per call.

    Same constructor contract as
    :class:`~repro.join.stream.StreamingJoin`; the two paths read the
    same pages in the same order and differ only in which dimensions
    :func:`~repro.join.batches.block_batch` inlines, which is what
    isolates the compute savings of the F- algorithms from I/O effects.
    """

    def batches(self, epoch: int = 0) -> Iterator[Batch]:
        """One full pass over the join result, no dimension inlined."""
        for block in self.blocks(epoch):
            yield block_batch(self.resolved, block, inline=False)
