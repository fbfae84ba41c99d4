"""The sparse pair table against a dense oracle.

:class:`DensePairs` is the structure ``maintain/stats.PairTable``
replaced — a ``(width, m_i, m_j)`` cube filled by ``np.add.at`` — kept
test-side behind the table's interface.  Random schedules drive the two
side by side, once at the table (batches, index-space growth, reads
from either side) and once through the statistics objects (a multi-
batch build, dimension updates on either side of a pair, dimension
appends, fact appends that reference the new rows): every coefficient
and every maintained statistic must agree to float round-off, and what
the statistics retain must be sized by the pairs the fact rows
reference, never by ``m_i · m_j``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import (
    DimensionSpec,
    StarSchemaConfig,
    generate_star,
)
from repro.errors import ModelError
from repro.gmm.model import GMMParams
from repro.maintain import stats as stats_module
from repro.maintain.stats import GMMSuffStats, LinearSuffStats, PairTable
from repro.storage.catalog import Database

CAPACITY = 48       # rows per dimension the dense cube has room for


class DensePairs:
    """The dense reference: every RID pair has a cell, referenced or not."""

    def __init__(self, width: int) -> None:
        self.cube = np.zeros((width, CAPACITY, CAPACITY))

    @property
    def nbytes(self) -> int:
        return self.cube.nbytes

    def add(self, left, right, mass) -> None:
        width = self.cube.shape[0]
        mass = np.asarray(mass, dtype=np.float64).reshape(left.size, width)
        for k in range(width):
            np.add.at(self.cube[k], (left, right), mass[:, k])

    def coupled(self, side, rows, features, centre) -> np.ndarray:
        cube = self.cube if side == 0 else np.swapaxes(self.cube, 1, 2)
        return np.einsum(
            "kus,skb->ukb", cube[:, rows, :features.shape[0]],
            features[:, None, :] - centre,
        )


def close(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=1e-13)


# -- the table alone ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    width=st.sampled_from([1, 4]),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.sampled_from(["add", "add", "grow", "read"]),
        min_size=1, max_size=12,
    ),
)
def test_table_matches_the_dense_cube(width, seed, steps):
    rng = np.random.default_rng(seed)
    table, dense = PairTable(width), DensePairs(width)
    sizes = [int(rng.integers(1, 6)), int(rng.integers(1, 6))]
    for step in steps + ["read"]:
        if step == "add":
            n = int(rng.integers(0, 20))    # repeats pairs; may be empty
            left = rng.integers(0, sizes[0], size=n)
            right = rng.integers(0, sizes[1], size=n)
            mass = rng.random((n, width))
            table.add(left, right, mass)
            dense.add(left, right, mass)
        elif step == "grow":                # rows nothing references yet
            side = int(rng.integers(2))
            sizes[side] = min(sizes[side] + int(rng.integers(1, 4)), CAPACITY)
        else:
            for side in (0, 1):
                rows = rng.integers(0, sizes[side], size=rng.integers(0, 7))
                features = rng.normal(size=(sizes[1 - side], 3))
                centre = rng.normal(size=(width, 3))
                close(
                    table.coupled(side, rows, features, centre),
                    dense.coupled(side, rows, features, centre),
                )
    assert np.all(np.diff(table.keys) > 0)
    assert table.mass.shape == (table.keys.size, width)


def test_repeated_pairs_inside_one_batch_are_summed():
    table = PairTable(2)
    left = np.array([3, 0, 3, 3, 0])
    right = np.array([1, 2, 1, 0, 2])
    mass = np.arange(10.0).reshape(5, 2)
    table.add(left, right, mass)
    eye = np.eye(3)
    out = table.coupled(0, np.array([3, 0, 1]), eye, 0.0)  # (rows, width, m_j)
    close(out[0].T, [mass[3], mass[0] + mass[2], [0, 0]])
    close(out[1].T, [[0, 0], [0, 0], mass[1] + mass[4]])
    assert not out[2].any()                 # row 1: no fact references it
    assert table.keys.size == 3             # distinct pairs, not rows


def test_an_empty_batch_and_an_empty_table():
    table = PairTable(4)
    none = np.empty(0, dtype=np.int64)
    table.add(none, none, np.empty((0, 4)))
    assert table.nbytes == 0
    for side in (0, 1):
        out = table.coupled(side, np.array([0, 5]), np.ones((6, 2)), 0.0)
        assert out.shape == (2, 4, 2) and not out.any()
    assert table.coupled(0, none, np.ones((6, 2)), 0.0).shape == (0, 4, 2)


def test_a_row_beyond_the_key_halves_is_refused():
    table = PairTable(1)
    fits, beyond = np.array([2**31 - 1]), np.array([2**31])
    table.add(fits, fits, np.ones(1))
    wide = np.lib.stride_tricks.as_strided(     # 2³¹ rows, one float
        np.array([2.0]), shape=(2**31, 1), strides=(0, 8)
    )
    for side in (0, 1):                         # the last legal row reads
        close(table.coupled(side, fits, wide, 0.0), [[[2.0]]])
    assert table.keys.tolist() == [np.iinfo(np.int64).max - 2**31]
    for left, right in ((beyond, fits), (fits, beyond)):
        with pytest.raises(ModelError, match=r"2\*\*31 rows"):
            table.add(left, right, np.ones(1))


def test_the_sort_by_right_order_is_dropped_when_the_table_changes():
    table = PairTable(1)
    table.add(np.array([0, 1]), np.array([1, 0]), np.ones(2))
    features = np.arange(4.0)[:, None]
    close(table.coupled(1, np.array([0]), features, 0.0)[:, 0, 0], [1.0])
    held = table.nbytes
    table.add(np.array([3]), np.array([0]), np.ones(1))
    assert table._by_right is None
    close(table.coupled(1, np.array([0]), features, 0.0)[:, 0, 0], [4.0])
    assert table.nbytes > held


# -- through the statistics ---------------------------------------------------


def _params(rng, k, d):
    return GMMParams(
        weights=np.full(k, 1.0 / k),
        means=rng.normal(size=(k, d)),
        covariances=np.stack([np.eye(d)] * k),
    )


def _build(db, spec, kind, params):
    if kind == "linear":
        return LinearSuffStats.build(db, spec, alpha=1e-3, block_pages=1)
    return GMMSuffStats.build(db, spec, params, block_pages=1)


def _both(db, spec, kind, params):
    """The statistics over the table, and over the dense reference."""
    sparse = _build(db, spec, kind, params)
    with mock.patch.object(stats_module, "PairTable", DensePairs):
        dense = _build(db, spec, kind, params)
    assert all(isinstance(t, PairTable) for t in sparse.pairs.values())
    assert all(isinstance(t, DensePairs) for t in dense.pairs.values())
    return sparse, dense


def _compare(sparse, dense):
    """Every moment array and per-RID aggregate, and every coupling."""
    for name in ("counts", "comp_sum", "comp_outer"):
        close(getattr(sparse, name), getattr(dense, name))
    for name in ("mass", "fact_mass", "dim_features"):
        for ours, theirs in zip(getattr(sparse, name), getattr(dense, name)):
            close(ours, theirs)
    for where, table in sparse.pairs.items():
        for side in (0, 1):
            rows = np.arange(len(sparse.dim_index[where[side]]))
            features = sparse.dim_features[where[1 - side]]
            centre = sparse.centre[:, sparse.layout.slice_of(where[1 - side] + 1)]
            close(
                table.coupled(side, rows, features, centre),
                dense.pairs[where].coupled(side, rows, features, centre),
            )


@settings(max_examples=25, deadline=None)
@given(
    q=st.sampled_from([2, 3]),
    kind=st.sampled_from(["linear", 1, 4]),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.sampled_from(["update", "update", "grow", "facts"]),
        min_size=1, max_size=8,
    ),
)
def test_statistics_match_their_dense_twin(q, kind, seed, steps):
    rng = np.random.default_rng(seed)
    dims = tuple(
        DimensionSpec(int(rng.integers(2, 8)), int(rng.integers(1, 4)))
        for _ in range(q)
    )
    config = StarSchemaConfig(
        n_s=int(rng.integers(20, 60)), d_s=2, dimensions=dims,
        with_target=True, seed=int(rng.integers(1000)),
    )
    # 256-byte pages: the build folds several batches, not one.
    with Database(page_size_bytes=256) as db:
        spec = generate_star(db, config).spec
        d = 2 + sum(dim.n_features for dim in dims)
        params = None if kind == "linear" else _params(rng, kind, d)
        sparse, dense = _both(db, spec, kind, params)
    # ... and need no database afterwards.
    names = [dim.relation for dim in spec.dimensions]
    _compare(sparse, dense)
    for step in steps:
        i = int(rng.integers(q))
        keys = sparse.dim_index[i].sorted_keys
        width = sparse.dim_features[i].shape[1]
        if step == "update":            # either side of every pair it is in
            rids = rng.choice(keys, size=rng.integers(1, keys.size + 1),
                              replace=False)
            args = (names[i], rids, rng.normal(size=(rids.size, width)))
            for stats in (sparse, dense):
                stats.apply_dimension_update(*args)
        elif step == "grow":
            if keys.size + 3 > CAPACITY:
                continue
            rids = keys.max() + 1 + np.arange(rng.integers(1, 4))
            args = (names[i], rids, rng.normal(size=(rids.size, width)))
            for stats in (sparse, dense):
                stats.fold_appended_dimension(*args)
        else:                           # may reference rows "grow" added
            n = int(rng.integers(0, 9))
            fact = rng.normal(size=(n, 2))
            args = [fact, [
                rng.choice(k.sorted_keys, size=n) for k in sparse.dim_index
            ], rng.normal(size=n)]
            for stats in (sparse, dense):
                stats.fold_appended_facts(*args)
        _compare(sparse, dense)


def test_an_update_of_a_row_no_fact_references_moves_no_coupling(
    db, multiway_star
):
    spec, config = multiway_star.spec, multiway_star.config
    name = spec.dimensions[0].relation
    d = config.d_s + sum(dim.n_features for dim in config.dimensions)
    params = _params(np.random.default_rng(3), 2, d)
    for kind in ("linear", 2):
        sparse, dense = _both(db, spec, kind, params)
        fresh = sparse.dim_index[0].sorted_keys[-1] + 1 + np.arange(2)
        width = sparse.dim_features[0].shape[1]
        for stats in (sparse, dense):
            stats.fold_appended_dimension(name, fresh, np.ones((2, width)))
        before = sparse.comp_outer.copy()
        for stats in (sparse, dense):
            stats.apply_dimension_update(
                name, fresh[:1], np.full((1, width), 7.0)
            )
        _compare(sparse, dense)
        np.testing.assert_array_equal(sparse.comp_outer, before)


def test_a_binary_join_has_no_pair_table(db, binary_star):
    stats = LinearSuffStats.build(db, binary_star.spec)
    assert stats.pairs == {}
    rids = stats.dim_index[0].sorted_keys[:3]
    stats.apply_dimension_update(
        "R1", rids, np.zeros((3, stats.dim_features[0].shape[1]))
    )
    stats.fold_appended_facts(
        np.zeros((0, 3)), [np.empty(0, dtype=np.int64)], np.empty(0)
    )
    assert stats.n == 500 and stats.nbytes > 0


def test_retained_bytes_follow_the_referenced_pairs(db):
    """m₁ = 4,000 × m₂ = 500 at K = 5: the dense cube alone was 80 MB."""
    m1, m2, n, k, d_s = 4_000, 500, 8_000, 5, 3
    config = StarSchemaConfig(
        n_s=n, d_s=d_s,
        dimensions=(DimensionSpec(m1, 4), DimensionSpec(m2, 2)),
        with_target=True, seed=5,
    )
    spec = generate_star(db, config).spec
    stats = GMMSuffStats.build(
        db, spec, _params(np.random.default_rng(0), k, d_s + 6)
    )
    stats.apply_dimension_update(          # merges, sorts by right
        "R2", stats.dim_index[1].sorted_keys[:8], np.zeros((8, 2))
    )
    table = stats.pairs[(0, 1)]
    assert table.keys.size <= n
    assert table.nbytes <= n * (k + 3) * 8      # keys, mass, by-right pair
    assert stats.nbytes < 4_000_000
    floats = sum(           # + 3: a key, its heap row and its map slot
        len(keys) * (k * (d_s + 1) + features.shape[1] + 3)
        for keys, features in zip(stats.dim_index, stats.dim_features)
    )
    assert stats.nbytes <= 8 * (floats + n * (k + 3)) + 8 * k * 10 * 11
    linear = LinearSuffStats.build(db, spec)
    assert type(linear.pairs[(0, 1)]) is type(table)
    assert linear.nbytes < 1_000_000


def test_the_size_is_exported_beside_the_staleness(db, multiway_star):
    from repro.maintain import MaintenancePolicy, ModelMaintainer
    from repro.obs import Telemetry

    telemetry = Telemetry(enabled=True)

    def exported():
        return telemetry.registry.snapshot().value(
            "repro_maintain_stats_bytes", model="m"
        )

    spec = multiway_star.spec
    with ModelMaintainer(
        db, "m", "linear", spec, telemetry=telemetry,
        policy=MaintenancePolicy(refresh="manual"),
    ) as maintainer:
        built = maintainer.stats.nbytes
        assert exported() == built > 0
        relation = db.relation(spec.dimensions[0].relation)
        fresh = relation.scan()[:3]
        fresh[:, 0] += 1_000
        db.append_rows(relation.name, fresh)
        maintainer.flush()              # three more rows per RID array
        assert exported() == maintainer.stats.nbytes > built
