"""FactorizedDesign: the factorized batch representation."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.linalg.blocks import BlockLayout
from repro.linalg.design import FactorizedDesign
from repro.linalg.groupsum import GroupIndex


def make_design(rng, n=40, d_s=3, dims=((6, 2), (4, 5))):
    fact = rng.normal(size=(n, d_s))
    blocks, groups = [], []
    for m, d in dims:
        blocks.append(rng.normal(size=(m, d)))
        groups.append(GroupIndex(rng.integers(0, m, size=n), m))
    return FactorizedDesign(fact, blocks, groups)


class TestValidation:
    def test_mismatched_groups(self, rng):
        fact = rng.normal(size=(10, 2))
        block = rng.normal(size=(3, 2))
        with pytest.raises(ModelError, match="group"):
            FactorizedDesign(fact, [block], [])

    def test_group_row_mismatch(self, rng):
        fact = rng.normal(size=(10, 2))
        block = rng.normal(size=(3, 2))
        group = GroupIndex(np.zeros(9, dtype=np.int64), 3)
        with pytest.raises(ModelError, match="indexes"):
            FactorizedDesign(fact, [block], [group])

    def test_group_count_vs_block_rows(self, rng):
        fact = rng.normal(size=(10, 2))
        block = rng.normal(size=(3, 2))
        group = GroupIndex(np.zeros(10, dtype=np.int64), 4)
        with pytest.raises(ModelError, match="groups"):
            FactorizedDesign(fact, [block], [group])

    def test_one_dim_fact_rejected(self, rng):
        with pytest.raises(ModelError):
            FactorizedDesign(rng.normal(size=10), [], [])


class TestGeometry:
    def test_layout(self, rng):
        design = make_design(rng)
        assert design.layout == BlockLayout([3, 2, 5])
        assert design.d == 10
        assert design.n == 40
        assert design.num_dimensions == 2

    def test_stored_values_less_than_dense(self, rng):
        design = make_design(rng, n=100, d_s=2, dims=((5, 8),))
        dense_values = design.n * design.d
        assert design.stored_values < dense_values
        assert design.stored_values == 100 * 2 + 5 * 8


class TestDensify:
    def test_densify_matches_manual_gather(self, rng):
        design = make_design(rng, n=25, d_s=2, dims=((4, 3),))
        dense = design.densify()
        assert dense.shape == (25, 5)
        np.testing.assert_array_equal(dense[:, :2], design.fact_block)
        np.testing.assert_array_equal(
            dense[:, 2:],
            design.dim_blocks[0][design.groups[0].codes],
        )

    def test_from_dense_round_trip(self, rng):
        design = make_design(rng)
        dense = design.densify()
        rebuilt = FactorizedDesign.from_dense(
            dense,
            design.layout,
            [g.codes for g in design.groups],
            design.dim_blocks,
        )
        np.testing.assert_array_equal(rebuilt.densify(), dense)


class TestRowRanges:
    def test_densify_rows_is_the_slice_of_the_whole(self, rng):
        design = make_design(rng)
        dense = design.densify()
        for rows in (slice(0, 7), slice(5, 11), slice(0, 10**6)):
            part = design.densify(rows)
            assert part.flags.c_contiguous
            np.testing.assert_array_equal(part, dense[rows])

    def test_tile_width_leaves_out_one_dimension(self, rng):
        design = make_design(rng, n=25, d_s=2, dims=((4, 3), (5, 6)))
        assert design.tile_width == 1 + 2 + 6
        assert make_design(rng, n=9, d_s=4, dims=()).tile_width == 1 + 4
