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

from repro.join.batches import FactorizedBatch
from repro.join.bnl import JoinAccess, JoinBlock, sids_and_targets
from repro.join.spec import ResolvedJoin
from repro.linalg.design import FactorizedDesign


def _factorize_block(
    resolved: ResolvedJoin, block: JoinBlock
) -> FactorizedBatch:
    fact = resolved.fact
    design = FactorizedDesign.from_plan(
        fact.project_features(block.fact_rows),
        [block.distinct_rows(i) for i in range(len(block.dim_features))],
        block.plan,
    )
    sids, targets = sids_and_targets(fact, block.fact_rows)
    return FactorizedBatch(sids, design, targets, plan=block.plan)


class FactorizedJoin(JoinAccess):
    """Streams the join result in factorized batches, one pass per call.

    Same constructor contract as
    :class:`~repro.join.stream.StreamingJoin`; the two paths read the
    same pages in the same order and differ only in batch
    representation, which is what isolates the compute savings of the
    F- algorithms from I/O effects.
    """

    def batches(self, epoch: int = 0) -> Iterator[FactorizedBatch]:
        """One full pass over the join result as factorized batches."""
        for block in self.blocks(epoch):
            yield _factorize_block(self.resolved, block)
