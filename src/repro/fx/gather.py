"""The dedup/gather engine shared by every factorized execution path.

Serving previously carried two private copies of the same loop: the
factorized predictors' partial gather and the materialized predictors'
request densify, each starting with its own ``np.unique`` over the FK
columns.  Both now consume a :class:`~repro.fx.dedup.DedupPlan`
computed once per batch:

* :func:`distinct_partials` — resolve each dimension's *distinct* RIDs
  through a partial cache (misses read base-relation pages and run the
  model's partial builder).  The GMM predictor stops here: its kernel
  gathers the rows per tile;
* :func:`gather_partials` — the same rows expanded back to request
  order (the NN first layer adds them to the fact-side product);
* :func:`densify_request` — fetch each dimension's distinct feature
  rows once and expand them into the wide ``[x_S | x_R1 | …]`` block
  the dense models score.

Caches are :class:`~repro.fx.sharding.ShardedPartialCache`\\ s handed
out by a :class:`~repro.fx.store.PartialStore`, one per fingerprint —
the one cache type a predictor ever holds.
"""

from __future__ import annotations

import numpy as np

from repro.fx.dedup import DedupPlan
from repro.obs.trace import NOOP_SPAN, current_span


def distinct_partials(
    lookups,
    caches,
    builders,
    plan: DedupPlan,
) -> list[np.ndarray]:
    """Per-dimension partial rows at the plan's *distinct* RIDs.

    Distinct RIDs come from the plan (no re-dedup); misses read
    base-relation pages through ``lookups`` and run the ``builders``;
    the builder's known row width keeps empty request batches
    well-shaped.

    Under tracing each dimension gets a ``cache.get_many`` child span
    (the cache attributes its hits/misses/evictions to it, and any
    buffer-pool page reads the miss compute triggers land there too).
    """
    parent = current_span() or NOOP_SPAN
    resolved = []
    for index, (lookup, cache, builder, dim) in enumerate(
        zip(lookups, caches, builders, plan.dims)
    ):
        if dim.m == 0:
            resolved.append(np.zeros((0, builder.width)))
            continue
        with parent.child(
            "cache.get_many", dimension=index, distinct=int(dim.m)
        ):
            resolved.append(
                cache.get_many(
                    dim.unique,
                    lambda keys, build=builder, look=lookup: build.compute(
                        look.features_for(keys)
                    ),
                )
            )
    return resolved


def gather_partials(
    lookups,
    caches,
    builders,
    plan: DedupPlan,
) -> list[np.ndarray]:
    """:func:`distinct_partials` expanded back to request rows, each
    dimension under a ``gather`` child span."""
    parent = current_span() or NOOP_SPAN
    gathered = []
    for index, (dim, rows) in enumerate(
        zip(plan.dims, distinct_partials(lookups, caches, builders, plan))
    ):
        with parent.child("gather", dimension=index, rows=int(plan.rows)):
            gathered.append(dim.gather(rows))
    return gathered


def densify_request(
    features: np.ndarray,
    lookups,
    plan: DedupPlan,
) -> np.ndarray:
    """Expand a normalized request to wide joined rows.

    Each dimension's feature rows are fetched once per *distinct* RID
    and gathered — the dense strategy enjoys the same single dedup as
    the factorized one; only the downstream math differs.
    """
    parent = current_span() or NOOP_SPAN
    with parent.child(
        "densify", dimensions=len(plan.dims), rows=int(plan.rows)
    ):
        parts = [features]
        for lookup, dim in zip(lookups, plan.dims):
            parts.append(dim.gather(lookup.features_for(dim.unique)))
        return np.concatenate(parts, axis=1)
