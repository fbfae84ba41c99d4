"""The streaming (join-on-the-fly) access path — Fig. 1(b).

S-GMM and S-NN never materialize the join result: every training pass
re-executes the block-nested-loops join and feeds each joined batch to
the model in denormalized form.  I/O per pass is the join cost; compute
per pass is identical to the materialized baseline because every joined
tuple is fully expanded.  (What a pass learns from key columns alone is
replayed, not recomputed — :class:`~repro.join.bnl.JoinIndex`.)

Expansion runs off the block's :class:`~repro.fx.dedup.DedupPlan`:
each dimension's feature rows are selected once at the plan's distinct
RIDs and gathered back to fact rows — the same single-dedup contract
the serving tier's ``densify_request`` honours.  The emitted
:class:`~repro.join.batches.DenseBatch` carries the plan for
downstream bookkeeping.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.join.batches import DenseBatch
from repro.join.bnl import JoinAccess, JoinBlock, sids_and_targets
from repro.join.spec import ResolvedJoin


def _densify_block(resolved: ResolvedJoin, block: JoinBlock) -> DenseBatch:
    """Expand a join block into wide ``[x_S | x_R1 | …]`` rows."""
    fact = resolved.fact
    parts = [fact.project_features(block.fact_rows)]
    for i, dim in enumerate(block.plan.dims):
        parts.append(dim.gather(block.distinct_rows(i)))
    sids, targets = sids_and_targets(fact, block.fact_rows)
    return DenseBatch(
        sids, np.concatenate(parts, axis=1), targets, plan=block.plan
    )


class StreamingJoin(JoinAccess):
    """Re-joins the base relations on the fly, one pass per call
    (constructor: :class:`~repro.join.bnl.JoinAccess`)."""

    def batches(self, epoch: int = 0) -> Iterator[DenseBatch]:
        """One full pass over the join result as dense batches."""
        for block in self.blocks(epoch):
            yield _densify_block(self.resolved, block)
