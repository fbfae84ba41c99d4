"""Property tests of ``DedupPlan.for_batch``'s two paths.

A column whose keys are integers in ``[0, span)``, the span small
against the rows, is counted (no sort, no ``order`` kept); any other
column is sorted once.  FK columns are drawn over the key domains of
``tests/serve/test_key_domains.py`` — dense, negative, straddling
zero, 2^40 strides — plus one past ``DIRECT_SPAN``, with batch sizes
0–4,096 and one to three dimensions.  On either path ``unique`` and
``inverse`` must be ``np.unique``'s arrays, dtypes included; the group
order, kept or derived on first read, must be the keys' stable
argsort; and the group sums must be the dense reduction's.
"""

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.fx.dedup import (
    COUNT_SPAN_FLOOR,
    COUNT_SPAN_PER_ROW,
    DedupPlan,
    DimensionDedup,
)
from repro.linalg.groupsum import DIRECT_SPAN

# (offset, stride): index i of a domain is key offset + stride * i.
DOMAINS = {
    "dense": (0, 1),
    "dense, strided": (0, 97),
    "negative": (-1_000_000, 1),
    "straddling zero": (-2_048, 1),
    "2^40 strides": (7, 2**40 + 1),
    "past DIRECT_SPAN": (DIRECT_SPAN, 1),
}


def counts(fk: np.ndarray) -> bool:
    """Whether ``for_batch`` should count this (non-empty) column."""
    span = min(COUNT_SPAN_FLOOR + COUNT_SPAN_PER_ROW * fk.size, DIRECT_SPAN)
    return bool(fk.min() >= 0 and fk.max() < span)


def check_dimension(dim: DimensionDedup, fk: np.ndarray, values) -> None:
    unique, inverse = np.unique(fk, return_inverse=True)
    np.testing.assert_array_equal(dim.unique, unique)
    np.testing.assert_array_equal(dim.inverse, inverse)
    assert dim.unique.dtype == unique.dtype
    assert dim.inverse.dtype == inverse.dtype
    if not fk.size:
        return
    assert (dim.order is None) == counts(fk)
    stable = np.argsort(fk, kind="stable")
    # The order the plan kept (sorted path) or derives (counted path),
    # and the one a plan that kept none derives from ``inverse``.
    np.testing.assert_array_equal(dim.group_index().order, stable)
    derived = DimensionDedup(dim.unique, dim.inverse).group_index().order
    np.testing.assert_array_equal(derived, stable)
    dense, scale = (np.zeros((unique.size, values.shape[1])) for _ in "ab")
    np.add.at(dense, inverse, values)
    np.add.at(scale, inverse, np.abs(values))   # a sum's rounding scale
    error = np.abs(dim.group_index().sum_rows(values) - dense)
    assert np.all(error <= 1e-13 * scale)


columns = st.tuples(
    st.sampled_from(sorted(DOMAINS)),
    st.integers(1, 6_000),                  # distinct indexes to draw from
    st.floats(0.0, 2.0),                    # Zipf exponent: 0 is uniform
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(0, 4_096),
    dims=st.lists(columns, min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_paths_are_np_unique(rows, dims, seed):
    rng = np.random.default_rng(seed)
    fks = []
    for domain, universe, skew in dims:
        weights = np.arange(1, universe + 1, dtype=np.float64) ** -skew
        indexes = rng.choice(universe, size=rows, p=weights / weights.sum())
        offset, stride = DOMAINS[domain]
        fks.append(offset + stride * indexes.astype(np.int64))
        note(f"{domain}: {universe} indexes, counted "
             f"{bool(rows) and counts(fks[-1])}")
    plan = DedupPlan.for_batch(fks)
    assert plan.rows == rows and plan.num_dimensions == len(fks)
    values = rng.normal(size=(rows, 3))
    for dim, fk in zip(plan.dims, fks):
        check_dimension(dim, fk, values)


@pytest.mark.parametrize("rows", [1, 16, 2_048, 4_096])
def test_the_cut_off_is_the_span_rule(rows):
    """Keys up to one below the rule's span are counted; one more key
    of span sorts; so does any negative key."""
    line = COUNT_SPAN_FLOOR + COUNT_SPAN_PER_ROW * rows
    rng = np.random.default_rng(rows)
    values = rng.normal(size=(rows, 2))
    for top, counted in ((line - 1, True), (line, False)):
        fk = rng.integers(0, top + 1, size=rows)
        fk[-1] = top
        (dim,) = DedupPlan.for_batch([fk]).dims
        assert (dim.order is None) == counted
        check_dimension(dim, fk, values)
    fk = rng.integers(-1, 10, size=rows)
    fk[0] = -1
    (dim,) = DedupPlan.for_batch([fk]).dims
    assert dim.order is not None
    check_dimension(dim, fk, values)


def test_more_than_2_16_groups_derive_the_order_by_the_packed_sort():
    """A counted column of over 65,536 distinct keys has codes too wide
    for the 16-bit radix sort; its order is still the stable argsort."""
    rng = np.random.default_rng(5)
    fk = rng.permutation(np.repeat(np.arange(70_000), 2))
    (dim,) = DedupPlan.for_batch([fk]).dims
    assert dim.order is None and dim.m > 1 << 16
    check_dimension(dim, fk, rng.normal(size=(fk.size, 2)))
