"""PK/FK join operators over paged relations.

Three access paths over the star join ``S ⋈ R_1 ⋈ … ⋈ R_q`` (Fig. 1):

* :func:`materialize_join` + :class:`MaterializedTable` — compute once,
  store ``T``, re-read per pass (the M- baselines);
* :class:`StreamingJoin` — re-join on the fly per pass, every
  dimension inlined into the batch (the S- baselines);
* :class:`FactorizedJoin` — same page schedule as streaming, no
  dimension inlined (the F- algorithms).
"""

from repro.join.batches import Batch
from repro.join.bnl import DEFAULT_BLOCK_PAGES, JoinBlock, iter_join_blocks
from repro.join.factorized import FactorizedJoin
from repro.join.materialize import MaterializedTable, materialize_join
from repro.join.reference import nested_loop_join
from repro.join.spec import DimensionJoin, JoinSpec, ResolvedJoin
from repro.join.stream import StreamingJoin

__all__ = [
    "Batch",
    "DEFAULT_BLOCK_PAGES",
    "DimensionJoin",
    "FactorizedJoin",
    "JoinBlock",
    "JoinSpec",
    "MaterializedTable",
    "ResolvedJoin",
    "StreamingJoin",
    "iter_join_blocks",
    "materialize_join",
    "nested_loop_join",
]
