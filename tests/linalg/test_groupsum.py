"""Grouped reductions: the primitive every reuse opportunity rests on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.linalg.groupsum import GroupIndex, KeyIndex, codes_for_keys


class TestGroupIndexValidation:
    def test_two_dim_codes_rejected(self):
        with pytest.raises(ModelError):
            GroupIndex(np.zeros((2, 2), dtype=np.int64), 4)

    def test_float_codes_rejected(self):
        with pytest.raises(ModelError, match="integers"):
            GroupIndex(np.array([0.0, 1.0]), 2)

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(ModelError, match="out of range"):
            GroupIndex(np.array([0, 5]), 3)

    def test_negative_codes_rejected(self):
        with pytest.raises(ModelError, match="out of range"):
            GroupIndex(np.array([-1, 0]), 3)

    def test_zero_groups_rejected(self):
        with pytest.raises(ModelError):
            GroupIndex(np.array([], dtype=np.int64), 0)

    def test_counts(self):
        index = GroupIndex(np.array([0, 2, 2, 0, 2]), 4)
        np.testing.assert_array_equal(index.counts, [2, 0, 3, 0])


class TestReductions:
    @pytest.fixture
    def index(self):
        return GroupIndex(np.array([1, 0, 1, 2, 1]), 3)

    def test_sum_weights(self, index):
        weights = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_allclose(
            index.sum_weights(weights), [2.0, 9.0, 4.0]
        )

    def test_sum_weights_shape_checked(self, index):
        with pytest.raises(ModelError):
            index.sum_weights(np.ones(3))

    def test_sum_rows_unweighted(self, index, rng):
        values = rng.normal(size=(5, 2))
        expected = np.zeros((3, 2))
        for i, code in enumerate([1, 0, 1, 2, 1]):
            expected[code] += values[i]
        np.testing.assert_allclose(index.sum_rows(values), expected)

    def test_sum_rows_weighted(self, index, rng):
        values = rng.normal(size=(5, 3))
        weights = rng.uniform(0.5, 2.0, size=5)
        expected = np.zeros((3, 3))
        for i, code in enumerate([1, 0, 1, 2, 1]):
            expected[code] += weights[i] * values[i]
        np.testing.assert_allclose(
            index.sum_rows(values, weights), expected
        )

    def test_sum_rows_one_dim_promoted(self, index):
        out = index.sum_rows(np.ones(5))
        assert out.shape == (3, 1)

    def test_sum_rows_presorted_matches(self, index, rng):
        values = rng.normal(size=(5, 2))
        weights = rng.uniform(0.5, 2.0, size=5)
        direct = index.sum_rows(values, weights)
        presorted = index.sum_rows(
            index.presort(values), weights[index.order], presorted=True
        )
        np.testing.assert_allclose(direct, presorted)

    def test_empty_groups_stay_zero(self):
        index = GroupIndex(np.array([0, 0]), 5)
        out = index.sum_rows(np.ones((2, 2)))
        np.testing.assert_array_equal(out[1:], np.zeros((4, 2)))

    def test_gather(self, index, rng):
        per_group = rng.normal(size=(3, 2))
        gathered = index.gather(per_group)
        np.testing.assert_array_equal(
            gathered, per_group[[1, 0, 1, 2, 1]]
        )

    def test_gather_wrong_rows(self, index):
        with pytest.raises(ModelError):
            index.gather(np.zeros((4, 2)))

    def test_empty_index(self):
        index = GroupIndex(np.array([], dtype=np.int64), 3)
        assert index.n == 0
        out = index.sum_rows(np.zeros((0, 2)))
        np.testing.assert_array_equal(out, np.zeros((3, 2)))


class TestCodesForKeys:
    def test_basic_translation(self):
        dim_keys = np.array([100, 7, 55])
        fact_keys = np.array([55, 100, 7, 7])
        codes = codes_for_keys(fact_keys, dim_keys)
        np.testing.assert_array_equal(dim_keys[codes], fact_keys)

    def test_dangling_raises(self):
        with pytest.raises(ModelError, match="dangling"):
            codes_for_keys(np.array([1, 999]), np.array([1, 2, 3]))

    def test_duplicate_dim_keys_raise(self):
        with pytest.raises(ModelError, match="duplicates"):
            codes_for_keys(np.array([1]), np.array([1, 1]))

    def test_empty_fact_keys(self):
        codes = codes_for_keys(
            np.array([], dtype=np.int64), np.array([3, 1])
        )
        assert codes.shape == (0,)

    def test_single_key(self):
        codes = codes_for_keys(np.array([42, 42]), np.array([42]))
        np.testing.assert_array_equal(codes, [0, 0])


@st.composite
def grouped_data(draw):
    m = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=0, max_value=60))
    c = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, m, size=n)
    values = rng.normal(size=(n, c))
    weights = rng.uniform(0.1, 2.0, size=n)
    return codes, m, values, weights


@given(data=grouped_data())
@settings(max_examples=60, deadline=None)
def test_sum_rows_matches_loop_reference(data):
    """Vectorized grouped sums equal the obvious Python loop."""
    codes, m, values, weights = data
    index = GroupIndex(codes, m)
    expected = np.zeros((m, values.shape[1]))
    for i in range(codes.size):
        expected[codes[i]] += weights[i] * values[i]
    np.testing.assert_allclose(
        index.sum_rows(values, weights), expected, atol=1e-12
    )


@given(data=grouped_data())
@settings(max_examples=60, deadline=None)
def test_gather_then_sum_identity(data):
    """Σ_groups sum_rows = Σ_rows values (mass conservation)."""
    codes, m, values, weights = data
    index = GroupIndex(codes, m)
    np.testing.assert_allclose(
        index.sum_rows(values, weights).sum(axis=0),
        (weights[:, None] * values).sum(axis=0),
        atol=1e-10,
    )


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    m=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_codes_for_keys_round_trip(seed, m, n):
    """For arbitrary unique keys and FK draws: keys[codes] == fks."""
    rng = np.random.default_rng(seed)
    dim_keys = rng.choice(10_000, size=m, replace=False)
    fact_keys = dim_keys[rng.integers(0, m, size=n)]
    codes = codes_for_keys(fact_keys, dim_keys)
    np.testing.assert_array_equal(dim_keys[codes], fact_keys)


@given(
    keys=st.lists(
        st.integers(-(2**40), 2**40), unique=True, max_size=40
    ),
    cut=st.integers(0, 40),
)
@settings(max_examples=100, deadline=None)
def test_an_extended_index_is_the_index_of_the_whole_column(keys, cut):
    """Merging appended keys in equals sorting the whole column anew —
    the same arrays, bit for bit, so every probe answers the same."""
    keys = np.asarray(keys, dtype=np.int64)
    head, tail = keys[:cut], keys[cut:]
    grown = KeyIndex(head).extended(tail)
    whole = KeyIndex(np.concatenate([head, tail]))
    assert len(grown) == keys.size
    np.testing.assert_array_equal(grown.sorted_keys, whole.sorted_keys)
    np.testing.assert_array_equal(grown.order, whole.order)
    assert grown.order.dtype == whole.order.dtype
    np.testing.assert_array_equal(grown.codes(keys), np.arange(keys.size))


@given(
    keys=st.lists(st.integers(0, 60), unique=True, min_size=1, max_size=30),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_an_extension_that_repeats_a_key_raises(keys, data):
    keys = np.asarray(keys, dtype=np.int64)
    index = KeyIndex(keys)
    fresh = np.setdiff1d(np.arange(61, 70), keys)
    repeated = data.draw(st.sampled_from(keys.tolist()))
    with pytest.raises(ModelError, match="duplicates"):
        index.extended(np.append(fresh, repeated))      # an indexed key
    with pytest.raises(ModelError, match="duplicates"):
        index.extended(np.append(fresh, fresh[:1]))     # within the batch
    assert len(index) == keys.size                      # left as it was
