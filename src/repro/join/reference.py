"""A deliberately naive nested-loop join used as a testing oracle.

Runs in pure Python over in-memory arrays with no batching, no paging,
and no cleverness; the production access paths in this package are
checked against it for multiset equality of joined tuples.
"""

from __future__ import annotations

import numpy as np

from repro.errors import JoinError
from repro.join.batches import Batch
from repro.join.spec import JoinSpec
from repro.linalg.design import FactorizedDesign
from repro.storage.catalog import Database


def nested_loop_join(db: Database, spec: JoinSpec) -> Batch:
    """Join the spec's relations tuple-at-a-time and return all rows,
    as one batch whose design is the wide rows (no dimension block).

    Output order follows the fact relation's storage order.  Raises on
    dangling foreign keys (the paper assumes PK/FK integrity).
    """
    resolved = spec.resolve(db)
    fact = resolved.fact
    fact_rows = fact.scan()
    dim_lookup = []
    for dim in resolved.dimensions:
        rows = dim.relation.scan()
        keys = dim.relation.project_keys(rows)
        feats = dim.relation.project_features(rows)
        dim_lookup.append(
            (
                {int(k): i for i, k in enumerate(keys)},
                feats,
                fact.schema.fk_position(dim.relation.name),
            )
        )
    joined = []
    for row in fact_rows:
        parts = [fact.project_features(row[None, :])[0]]
        for key_to_row, feats, fk_position in dim_lookup:
            fk_value = int(row[fk_position])
            if fk_value not in key_to_row:
                raise JoinError(
                    f"dangling foreign key {fk_value} in {fact.name!r}"
                )
            parts.append(feats[key_to_row[fk_value]])
        joined.append(np.concatenate(parts))
    features = (
        np.vstack(joined)
        if joined
        else np.empty((0, resolved.total_features))
    )
    sids = (
        fact.project_keys(fact_rows)
        if fact.schema.key_column is not None
        else np.arange(fact_rows.shape[0])
    )
    targets = (
        fact.project_targets(fact_rows)
        if fact.schema.target_column is not None
        else None
    )
    return Batch(sids, FactorizedDesign(features, [], []), targets)
