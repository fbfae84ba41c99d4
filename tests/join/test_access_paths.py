"""The three access paths agree with the naive reference join."""

import math

import numpy as np
import pytest

from repro.errors import JoinError
from repro.join.batches import Batch
from repro.join.bnl import iter_join_blocks
from repro.join.factorized import FactorizedJoin
from repro.join.materialize import MaterializedTable, materialize_join
from repro.join.reference import nested_loop_join
from repro.join.stream import StreamingJoin
from repro.linalg.design import FactorizedDesign

from tests.conftest import make_binary_relations


def canonical(batch: Batch):
    order = np.argsort(batch.sids, kind="stable")
    targets = None if batch.targets is None else batch.targets[order]
    return batch.sids[order], batch.design.densify()[order], targets


def collect_dense(batches):
    """A pass's batches as one batch of wide rows."""
    batches = list(batches)
    sids = np.concatenate([b.sids for b in batches])
    features = np.concatenate([b.design.densify() for b in batches])
    targets = (
        None
        if batches[0].targets is None
        else np.concatenate([b.targets for b in batches])
    )
    return Batch(sids, FactorizedDesign(features, [], []), targets)


class TestStreamingJoin:
    def test_matches_reference(self, tiny_db, rng):
        spec = make_binary_relations(tiny_db, rng, with_target=True)
        reference = nested_loop_join(tiny_db, spec)
        stream = StreamingJoin(tiny_db, spec, block_pages=2)
        got = collect_dense(stream.batches())
        for expected, actual in zip(canonical(reference), canonical(got)):
            np.testing.assert_allclose(expected, actual)

    def test_each_pass_identical(self, tiny_db, rng):
        spec = make_binary_relations(tiny_db, rng)
        stream = StreamingJoin(tiny_db, spec, block_pages=3)
        first = collect_dense(stream.batches())
        second = collect_dense(stream.batches())
        np.testing.assert_array_equal(
            first.design.fact_block, second.design.fact_block
        )

    def test_num_rows(self, tiny_db, rng):
        spec = make_binary_relations(tiny_db, rng, n_s=123)
        stream = StreamingJoin(tiny_db, spec)
        assert stream.num_rows == 123

    def test_shuffle_permutes_but_preserves_multiset(self, tiny_db, rng):
        spec = make_binary_relations(tiny_db, rng)
        plain = collect_dense(
            StreamingJoin(tiny_db, spec, block_pages=2).batches()
        )
        shuffled = collect_dense(
            StreamingJoin(
                tiny_db, spec, block_pages=2, shuffle=True, seed=3
            ).batches()
        )
        assert not np.array_equal(plain.sids, shuffled.sids)
        np.testing.assert_array_equal(
            np.sort(plain.sids), np.sort(shuffled.sids)
        )

    def test_shuffle_varies_by_epoch(self, tiny_db, rng):
        spec = make_binary_relations(tiny_db, rng)
        stream = StreamingJoin(
            tiny_db, spec, block_pages=2, shuffle=True, seed=3
        )
        epoch0 = collect_dense(stream.batches(epoch=0))
        epoch1 = collect_dense(stream.batches(epoch=1))
        assert not np.array_equal(epoch0.sids, epoch1.sids)

    def test_shuffle_deterministic_per_seed_epoch(self, tiny_db, rng):
        spec = make_binary_relations(tiny_db, rng)
        a = collect_dense(
            StreamingJoin(
                tiny_db, spec, block_pages=2, shuffle=True, seed=3
            ).batches(epoch=5)
        )
        b = collect_dense(
            StreamingJoin(
                tiny_db, spec, block_pages=2, shuffle=True, seed=3
            ).batches(epoch=5)
        )
        np.testing.assert_array_equal(a.sids, b.sids)


class TestFactorizedJoin:
    def test_densified_matches_reference(self, tiny_db, rng):
        spec = make_binary_relations(tiny_db, rng, with_target=True)
        reference = nested_loop_join(tiny_db, spec)
        factorized = FactorizedJoin(tiny_db, spec, block_pages=2)
        got = collect_dense(factorized.batches())
        for expected, actual in zip(canonical(reference), canonical(got)):
            np.testing.assert_allclose(expected, actual)

    def test_same_page_schedule_as_streaming(self, tiny_db, rng):
        """F reads exactly the pages S reads — compute isolation."""
        spec = make_binary_relations(tiny_db, rng)
        tiny_db.reset_stats()
        for _ in StreamingJoin(tiny_db, spec, block_pages=2).batches():
            pass
        streaming_io = tiny_db.stats.snapshot()
        tiny_db.reset_stats()
        for _ in FactorizedJoin(tiny_db, spec, block_pages=2).batches():
            pass
        factorized_io = tiny_db.stats.snapshot()
        assert streaming_io.pages_read == factorized_io.pages_read
        assert (
            streaming_io.reads_by_relation
            == factorized_io.reads_by_relation
        )

    def test_dimension_blocks_hold_distinct_rows(self, tiny_db, rng):
        spec = make_binary_relations(tiny_db, rng, n_s=200, n_r=10)
        factorized = FactorizedJoin(tiny_db, spec, block_pages=99)
        (batch,) = list(factorized.batches())
        assert batch.design.dim_blocks[0].shape[0] == 10
        assert batch.design.stored_values < batch.n * batch.design.d

    def test_multiway_matches_reference(self, db, multiway_star):
        reference = nested_loop_join(db, multiway_star.spec)
        factorized = FactorizedJoin(db, multiway_star.spec, block_pages=2)
        got = collect_dense(factorized.batches())
        for expected, actual in zip(canonical(reference), canonical(got)):
            np.testing.assert_allclose(expected, actual)


class TestMaterialize:
    def test_table_matches_reference(self, tiny_db, rng):
        spec = make_binary_relations(tiny_db, rng, with_target=True)
        reference = nested_loop_join(tiny_db, spec)
        table = materialize_join(tiny_db, spec, "T", block_pages=2)
        got = collect_dense(
            MaterializedTable(table, block_pages=3).batches()
        )
        for expected, actual in zip(canonical(reference), canonical(got)):
            np.testing.assert_allclose(expected, actual)

    def test_existing_name_rejected(self, tiny_db, rng):
        spec = make_binary_relations(tiny_db, rng)
        materialize_join(tiny_db, spec, "T")
        with pytest.raises(JoinError, match="already exists"):
            materialize_join(tiny_db, spec, "T")

    def test_replace(self, tiny_db, rng):
        spec = make_binary_relations(tiny_db, rng)
        materialize_join(tiny_db, spec, "T")
        table = materialize_join(tiny_db, spec, "T", replace=True)
        assert table.nrows == 300

    def test_materialization_charges_writes(self, tiny_db, rng):
        spec = make_binary_relations(tiny_db, rng)
        tiny_db.reset_stats()
        table = materialize_join(tiny_db, spec, "T")
        assert tiny_db.stats.writes_for("T") == table.npages

    def test_row_order_matches_streaming(self, tiny_db, rng):
        """T preserves the BNL emission order, so M- batches replay the
        same tuple sequence the S-/F- paths produce."""
        spec = make_binary_relations(tiny_db, rng)
        stream_rows = collect_dense(
            StreamingJoin(tiny_db, spec, block_pages=2).batches()
        )
        table = materialize_join(tiny_db, spec, "T", block_pages=2)
        table_rows = collect_dense(
            MaterializedTable(table, block_pages=4).batches()
        )
        np.testing.assert_array_equal(
            stream_rows.sids, table_rows.sids
        )
        np.testing.assert_allclose(
            stream_rows.design.fact_block, table_rows.design.fact_block
        )


class TestIOCostFormulas:
    def test_binary_pass_matches_formula(self, tiny_db, rng):
        """Measured BNL I/O = |R| + ceil(|R|/B)·|S| (Section V-A)."""
        spec = make_binary_relations(tiny_db, rng, n_s=400, n_r=30)
        for block_pages in (1, 2, 4, 64):
            tiny_db.reset_stats()
            for _ in StreamingJoin(
                tiny_db, spec, block_pages=block_pages
            ).batches():
                pass
            pages_r = tiny_db["R"].npages
            pages_s = tiny_db["S"].npages
            expected = pages_r + math.ceil(pages_r / block_pages) * pages_s
            assert tiny_db.stats.pages_read == expected

    def test_multiway_pass_io(self, db, multiway_star):
        """Multi-way pass reads |S| + Σ|R_i| pages."""
        db.reset_stats()
        for _ in StreamingJoin(
            db, multiway_star.spec, block_pages=4
        ).batches():
            pass
        resolved = multiway_star.spec.resolve(db)
        expected = resolved.fact.npages + sum(
            d.relation.npages for d in resolved.dimensions
        )
        assert db.stats.pages_read == expected


class TestJoinBlocks:
    def test_invalid_block_pages(self, tiny_db, rng):
        spec = make_binary_relations(tiny_db, rng)
        resolved = spec.resolve(tiny_db)
        with pytest.raises(JoinError):
            list(iter_join_blocks(resolved, block_pages=0))

    def test_blocks_partition_fact_rows(self, tiny_db, rng):
        spec = make_binary_relations(tiny_db, rng, n_s=150)
        resolved = spec.resolve(tiny_db)
        blocks = list(iter_join_blocks(resolved, block_pages=1))
        assert sum(b.n for b in blocks) == 150
