"""The dedup/gather engine shared by every factorized execution path.

Serving previously carried two private copies of the same loop: the
factorized arm's partial gather and the materialized arm's request
densify, each starting with its own ``np.unique`` over the FK columns.
Both now consume a :class:`~repro.fx.dedup.DedupPlan`
computed once per batch:

* :func:`distinct_partials` — resolve each dimension's *distinct* RIDs
  through a partial cache (misses read base-relation pages and run the
  model's partial builder).  The GMM predictor stops here: its kernel
  gathers the rows per tile;
* :func:`gather_partials` — the same rows in request order, expanded
  by the cache's own ``take`` (the NN first layer adds them to the
  fact-side product);
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
    *,
    in_request_order: bool = False,
) -> list[np.ndarray]:
    """Per-dimension partial rows at the plan's *distinct* RIDs.

    Distinct RIDs come from the plan (no re-dedup); misses read
    base-relation pages through ``lookups`` and run the ``builders``;
    the builder's known row width keeps empty request batches
    well-shaped.  ``in_request_order`` hands each cache the plan's
    ``inverse`` too, so the rows come back expanded to the request's
    rows — a warm dimension in one ``take`` of its slab
    (:func:`gather_partials`).

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
                    dim.inverse if in_request_order else None,
                )
            )
    return resolved


def gather_partials(
    lookups,
    caches,
    builders,
    plan: DedupPlan,
) -> list[np.ndarray]:
    """:func:`distinct_partials` expanded back to request rows, inside
    each cache's ``get_many``."""
    return distinct_partials(
        lookups, caches, builders, plan, in_request_order=True
    )


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
