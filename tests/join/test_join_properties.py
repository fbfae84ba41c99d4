"""Property-based join correctness over random star schemas.

For arbitrary relation sizes, widths, FK patterns, and page/block
geometries, all three access paths must produce the same multiset of
joined tuples as the naive nested-loop reference.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.join.factorized import FactorizedJoin
from repro.join.materialize import MaterializedTable, materialize_join
from repro.join.reference import nested_loop_join
from repro.join.stream import StreamingJoin
from repro.storage.catalog import Database
from repro.storage.schema import (
    Schema,
    features,
    foreign_key,
    key,
    target,
)


@st.composite
def star_case(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n_s = draw(st.integers(min_value=1, max_value=80))
    q = draw(st.integers(min_value=1, max_value=2))
    dims = [
        (
            draw(st.integers(min_value=1, max_value=12)),
            draw(st.integers(min_value=1, max_value=3)),
        )
        for _ in range(q)
    ]
    d_s = draw(st.integers(min_value=1, max_value=3))
    with_target = draw(st.booleans())
    block_pages = draw(st.sampled_from([1, 2, 7]))
    page_size = draw(st.sampled_from([128, 512]))
    return seed, n_s, d_s, dims, with_target, block_pages, page_size


def build_db(tmp_dir, seed, n_s, d_s, dims, with_target, page_size):
    rng = np.random.default_rng(seed)
    db = Database(tmp_dir, page_size_bytes=page_size)
    dim_names = []
    for i, (n_r, d_r) in enumerate(dims, start=1):
        name = f"R{i}"
        dim_names.append(name)
        rows = np.column_stack(
            [
                np.arange(n_r, dtype=np.float64) * 2 + 1,  # sparse keys
                rng.normal(size=(n_r, d_r)),
            ]
        )
        db.create_relation(
            name, Schema([key("rid"), *features("a", d_r)]), rows
        )
    columns = [key("sid")]
    parts = [np.arange(n_s, dtype=np.float64)[:, None]]
    if with_target:
        columns.append(target("y"))
        parts.append(rng.normal(size=(n_s, 1)))
    columns.extend(features("x", d_s))
    parts.append(rng.normal(size=(n_s, d_s)))
    for i, (n_r, _) in enumerate(dims, start=1):
        columns.append(foreign_key(f"fk{i}", f"R{i}"))
        fk_values = rng.integers(0, n_r, size=n_s) * 2 + 1
        parts.append(fk_values[:, None].astype(np.float64))
    db.create_relation(
        "S", Schema(columns), np.concatenate(parts, axis=1)
    )
    from repro.join.spec import DimensionJoin, JoinSpec

    return db, JoinSpec(
        "S",
        [DimensionJoin(f"R{i}", f"fk{i}") for i in range(1, len(dims) + 1)],
    )


def sorted_rows(sids, features_matrix, targets):
    order = np.lexsort((features_matrix[:, 0], sids))
    rows = [sids[order], features_matrix[order]]
    if targets is not None:
        rows.append(targets[order])
    return rows


@given(case=star_case())
@settings(max_examples=30, deadline=None)
def test_all_access_paths_agree(case, tmp_path_factory):
    seed, n_s, d_s, dims, with_target, block_pages, page_size = case
    tmp_dir = tmp_path_factory.mktemp("star")
    db, spec = build_db(
        tmp_dir, seed, n_s, d_s, dims, with_target, page_size
    )
    try:
        reference = nested_loop_join(db, spec)
        expected = sorted_rows(
            reference.sids, reference.design.fact_block, reference.targets
        )

        def check(batches):
            batches = list(batches)
            sids = np.concatenate([b.sids for b in batches])
            feats = np.concatenate([b.design.densify() for b in batches])
            targets = (
                np.concatenate([b.targets for b in batches])
                if with_target
                else None
            )
            got = sorted_rows(sids, feats, targets)
            for e, g in zip(expected, got):
                np.testing.assert_allclose(e, g)

        check(StreamingJoin(db, spec, block_pages=block_pages).batches())
        check(FactorizedJoin(db, spec, block_pages=block_pages).batches())
        table = materialize_join(
            db, spec, "T_prop", block_pages=block_pages, replace=True
        )
        check(MaterializedTable(table, block_pages=block_pages).batches())
    finally:
        db.close(delete=True)
