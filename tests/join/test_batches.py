"""The one batch container: validation, plans."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.join.batches import Batch
from repro.linalg.design import FactorizedDesign
from repro.linalg.groupsum import GroupIndex

from tests.conftest import make_binary_relations


def make_factorized(rng, n=20, d_s=2, m=4, d_r=3, with_target=True):
    design = FactorizedDesign(
        rng.normal(size=(n, d_s)),
        [rng.normal(size=(m, d_r))],
        [GroupIndex(rng.integers(0, m, size=n), m)],
    )
    targets = rng.normal(size=n) if with_target else None
    return Batch(np.arange(n), design, targets)


def wide(rows):
    """Wide rows as a design with every dimension inlined."""
    return FactorizedDesign(rows, [], [])


class TestBatch:
    def test_row_count(self, rng):
        assert Batch(np.arange(5), wide(rng.normal(size=(5, 3)))).n == 5
        assert make_factorized(rng, n=17).n == 17

    def test_id_count_mismatch(self, rng):
        with pytest.raises(ModelError):
            Batch(np.arange(4), wide(rng.normal(size=(5, 3))))

    def test_id_mismatch_against_a_factorized_design(self, rng):
        design = FactorizedDesign(
            rng.normal(size=(5, 2)),
            [rng.normal(size=(2, 2))],
            [GroupIndex(np.zeros(5, dtype=np.int64), 2)],
        )
        with pytest.raises(ModelError):
            Batch(np.arange(4), design)

    def test_target_shape_mismatch(self, rng):
        with pytest.raises(ModelError):
            Batch(np.arange(5), wide(rng.normal(size=(5, 3))), np.zeros(4))

    def test_one_dim_features_rejected(self, rng):
        with pytest.raises(ModelError):
            Batch(np.arange(5), wide(rng.normal(size=5)))


class TestBatchPlans:
    def test_join_batches_carry_plans(self, tiny_db, rng):
        from repro.join.factorized import FactorizedJoin
        from repro.join.stream import StreamingJoin

        spec = make_binary_relations(tiny_db, rng)
        for access in (
            StreamingJoin(tiny_db, spec, block_pages=2),
            FactorizedJoin(tiny_db, spec, block_pages=2),
        ):
            for batch in access.batches():
                assert batch.plan is not None
                assert batch.plan.matches(batch.n, 1)
                # streaming inlines the dimension, factorized keeps it
                assert batch.design.num_dimensions == (
                    isinstance(access, FactorizedJoin)
                )

    def test_hand_built_batches_have_no_plan(self, rng):
        dense = Batch(np.arange(5), wide(rng.normal(size=(5, 3))))
        assert dense.plan is None
        assert make_factorized(rng).plan is None

    def test_mismatched_plan_rejected(self, rng):
        from repro.fx.dedup import DedupPlan

        batch = make_factorized(rng, n=20)
        stale = DedupPlan.for_batch(
            [rng.integers(0, 4, size=19).astype(np.int64)]
        )
        with pytest.raises(ModelError, match="plan"):
            Batch(batch.sids, batch.design, batch.targets, plan=stale)

    def test_a_plan_missing_a_kept_dimension_rejected(self, rng):
        from repro.fx.dedup import DedupPlan

        batch = make_factorized(rng, n=20)
        keyless = DedupPlan(rows=20, dims=())
        with pytest.raises(ModelError, match="plan"):
            Batch(batch.sids, batch.design, batch.targets, plan=keyless)

    def test_distinct_rows_match_unique_rids(self, tiny_db, rng):
        """JoinBlock.distinct_rows(i) holds exactly the features of the
        plan's sorted distinct RIDs."""
        from repro.join.bnl import iter_join_blocks

        spec = make_binary_relations(tiny_db, rng, n_s=120, n_r=10)
        resolved = spec.resolve(tiny_db)
        for block in iter_join_blocks(resolved, block_pages=2):
            dim = block.plan.dims[0]
            rows = block.distinct_rows(0)
            assert rows.shape[0] == dim.m
            key_to_row = {
                int(k): block.dim_features[0][i]
                for i, k in enumerate(block.dim_keys[0])
            }
            for rid, row in zip(dim.unique, rows):
                np.testing.assert_array_equal(row, key_to_row[int(rid)])
