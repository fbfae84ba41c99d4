"""The pass-invariant join index: replay changes nothing but the work.

An S-/F- access path records, on its first pass over each outer block,
what the block's *key columns* determine (matched offsets, the dedup
plan with its group order, distinct-row positions) and replays it on
later passes.  These tests pin the contract: replayed batches are
array-for-array what a fresh access emits, every pass reads the same
pages, a change to any joined relation forces a rebuild, and whole fits
are ``==`` the same fits with the index cleared before every pass.

The database keeps the index of the join it last trained on and lends
it to one open access at a time, so a second fit over a star replays
from its first pass.  The later classes pin that lifetime: inheriting
changes no bit of any arm's fit, the slot is keyed by the relation
objects (not their names), a change to a joined relation drops it at
once, and concurrent fits never share one.
"""

import math
import threading
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.api import fit_gmm, fit_nn
from repro.data.synthetic import (
    DimensionSpec,
    StarSchemaConfig,
    generate_star,
)
from repro.fx.costs import COUNT_TABLE
from repro.gmm.engines import FactorizedEMEngine
from repro.join.bnl import JoinIndex, _BlockKeys, _block_starts, group_blocks
from repro.join.factorized import FactorizedJoin
from repro.join.materialize import MaterializedTable, materialize_join
from repro.join.stream import StreamingJoin
from repro.obs import Telemetry
from repro.storage.catalog import Database

ACCESS = {"streaming": StreamingJoin, "factorized": FactorizedJoin}
EM_PASSES = COUNT_TABLE["gmm", "train"][1]


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture(params=["binary", "multiway"])
def star(request, tiny_db):
    """Stars over 256-byte pages: S spans 50 pages (binary, 6 rows
    each) or 60 (multi-way, 5 each), the dimensions 4 (binary) or
    4 + 2 (multi-way)."""
    dimensions = (
        (DimensionSpec(25, 3),)
        if request.param == "binary"
        else (DimensionSpec(28, 3), DimensionSpec(13, 2))
    )
    config = StarSchemaConfig(
        n_s=300, d_s=2, dimensions=dimensions, with_target=True, seed=17
    )
    return generate_star(tiny_db, config)


def arrays_of(batch) -> dict[str, np.ndarray]:
    """Every array a batch carries, by name."""
    out = {"sids": batch.sids, "targets": batch.targets}
    if hasattr(batch, "design"):
        out["fact_block"] = batch.design.fact_block
        for i, (block, group) in enumerate(
            zip(batch.design.dim_blocks, batch.design.groups)
        ):
            out[f"dim_block{i}"] = block
            out[f"codes{i}"] = group.codes
            out[f"order{i}"] = group.order
    else:
        out["features"] = batch.features
    for i, dim in enumerate(batch.plan.dims):
        out[f"unique{i}"] = dim.unique
        out[f"inverse{i}"] = dim.inverse
    return out


def fastest(record) -> str:
    """The arm an ``extra["auto"]`` record predicts fastest (ties to
    the first in materialized, streaming, factorized order)."""
    predicted = record["predicted_s"]
    return min(predicted, key=predicted.get)


def assert_same_pass(got, want):
    assert len(got) == len(want) > 0
    for batch_got, batch_want in zip(got, want):
        arrays_got, arrays_want = arrays_of(batch_got), arrays_of(batch_want)
        assert arrays_got.keys() == arrays_want.keys()
        for name, array in arrays_got.items():
            np.testing.assert_array_equal(array, arrays_want[name], name)
            if name.startswith("order"):
                codes = arrays_got["codes" + name[5:]]
                np.testing.assert_array_equal(
                    array, np.argsort(codes, kind="stable")
                )


def pass_reads(db, access, epoch=0):
    """(pages_read, reads_by_relation) of one full pass."""
    before = db.stats.snapshot()
    for _ in access.batches(epoch):
        pass
    delta = db.stats.snapshot() - before
    return delta.pages_read, delta.reads_by_relation


def replay_groups(db, access, epoch):
    """The runs of outer blocks a replayed binary pass at ``epoch``
    scans ``S`` once for: :func:`group_blocks` over the pass's block
    order (its rng's first draw) within the buffer pool's pages."""
    resolved = access.resolved
    rng = np.random.default_rng((access.seed, epoch)) if access.shuffle else None
    starts = _block_starts(
        resolved.dimensions[0].relation.npages, access.block_pages,
        access.shuffle, rng,
    )
    recorded = access.index._recorded
    return group_blocks(
        [recorded[first_page].rows for first_page in starts],
        db.buffer_pool.capacity_pages * resolved.fact.heap.rows_per_page,
    )


#: Buffer pools for the stars above: one page (no two blocks' fact rows
#: fit, so a replay scans ``S`` once per block), half the binary ``S``,
#: and the default, which holds all of either ``S``.
POOLS = {"one-block": 1, "half-S": 25, "default": 1024}


@pytest.mark.parametrize("shuffle", [False, True], ids=["ordered", "shuffle"])
@pytest.mark.parametrize("block_pages", [1, 2, 64])
@pytest.mark.parametrize("path", sorted(ACCESS))
class TestReplayEqualsFresh:
    @pytest.fixture(params=sorted(POOLS))
    def tiny_db(self, request, tmp_path):
        database = Database(
            tmp_path / "tinydb", page_size_bytes=256,
            buffer_pages=POOLS[request.param],
        )
        yield database
        database.close(delete=True)

    def test_every_array_of_every_batch(
        self, tiny_db, star, path, block_pages, shuffle
    ):
        config = dict(block_pages=block_pages, shuffle=shuffle, seed=5)
        access = ACCESS[path](tiny_db, star.spec, **config)
        for epoch in range(3):
            fresh = ACCESS[path](tiny_db, star.spec, **config)
            assert_same_pass(
                list(access.batches(epoch)), list(fresh.batches(epoch))
            )
        stats = access.index.stats()
        assert stats["passes_replayed"] == 2
        assert stats["rebuilds"] == 0
        assert stats["bytes"] > 0

    def test_a_replayed_pass_abandoned_after_one_block(
        self, tiny_db, star, path, block_pages, shuffle
    ):
        config = dict(block_pages=block_pages, shuffle=shuffle, seed=5)
        access = ACCESS[path](tiny_db, star.spec, **config)
        list(access.batches(0))
        for batch in access.batches(1):
            break                       # what init_sample does
        fresh = ACCESS[path](tiny_db, star.spec, **config)
        assert_same_pass([batch], list(fresh.batches(1))[:1])
        assert_same_pass(list(access.batches(2)), list(fresh.batches(2)))
        assert access.index.stats()["passes_replayed"] == 2

    def test_a_first_pass_is_section_va_and_a_replay_scans_s_per_group(
        self, tiny_db, star, path, block_pages, shuffle
    ):
        access = ACCESS[path](
            tiny_db, star.spec, block_pages=block_pages, shuffle=shuffle
        )
        fact = tiny_db[star.fact_name].npages
        dims = [tiny_db[name].npages for name in star.dimension_names]
        first = pass_reads(tiny_db, access, 0)
        if len(dims) > 1:       # |S| + Σ|R_i|, replayed or not
            assert first[0] == fact + sum(dims)
            for epoch in (1, 2):
                assert pass_reads(tiny_db, access, epoch) == first
                assert access.index.stats()["fact_scans"] == 1
            return
        blocks = math.ceil(dims[0] / block_pages)
        # Section V-A: |R| + ceil(|R|/B)·|S|
        assert first[0] == dims[0] + blocks * fact
        assert access.index.stats()["fact_scans"] == blocks
        pool = tiny_db.buffer_pool.capacity_pages
        for epoch in (1, 2):
            groups = len(replay_groups(tiny_db, access, epoch))
            replayed = pass_reads(tiny_db, access, epoch)
            assert replayed == (
                dims[0] + groups * fact, {"R1": dims[0], "S": groups * fact}
            )
            assert access.index.stats()["fact_scans"] == groups
            if pool == POOLS["one-block"]:
                assert groups == blocks
            elif pool >= fact:
                assert groups == 1
            elif blocks == 4:
                assert 1 < groups < blocks


@pytest.mark.parametrize("path", sorted(ACCESS))
class TestPartialAndStaleIndexes:
    def test_abandoned_pass_leaves_a_usable_partial_index(
        self, tiny_db, star, path
    ):
        access = ACCESS[path](tiny_db, star.spec, block_pages=1)
        for _ in access.batches():
            break                       # what init_sample does
        partial = access.index.stats()
        assert partial["blocks"] == 1
        fresh = list(ACCESS[path](tiny_db, star.spec, block_pages=1).batches())
        assert_same_pass(list(access.batches()), fresh)
        assert access.index.stats()["blocks"] == len(fresh) > 1
        assert access.index.stats()["passes_replayed"] == 0
        assert_same_pass(list(access.batches()), fresh)
        assert access.index.stats()["passes_replayed"] == 1

    @pytest.mark.parametrize("change", ["update_dimension", "append_fact"])
    def test_row_changes_force_a_rebuild(self, tiny_db, star, path, change):
        access = ACCESS[path](tiny_db, star.spec, block_pages=2)
        list(access.batches())
        if change == "update_dimension":
            name = star.dimension_names[0]
            positions = np.array([0, 7])
            rows = tiny_db[name].scan()[positions]      # keys kept
            rows[:, 1:] += 1.0
            tiny_db.update_rows(name, positions, rows)
        else:
            rows = tiny_db[star.fact_name].scan()[:7].copy()
            rows[:, 0] += 10_000                        # fresh SIDs
            tiny_db.append_rows(star.fact_name, rows)
        after = list(access.batches())
        assert access.index.stats()["rebuilds"] == 1
        assert access.index.stats()["passes_replayed"] == 0
        assert_same_pass(
            after,
            list(ACCESS[path](tiny_db, star.spec, block_pages=2).batches()),
        )
        assert sum(batch.n for batch in after) == tiny_db[star.fact_name].nrows


@contextmanager
def every_pass_cold():
    """Test-only hook: every pass starts from an empty index."""
    recording = JoinIndex.blocks

    def blocks(self, *args, **kwargs):
        self.clear()
        return recording(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JoinIndex, "blocks", blocks)
        yield


@pytest.fixture
def cold_index():
    with every_pass_cold():
        yield


@contextmanager
def counting_records():
    """The list grows by one per outer block a pass records (dedup plan
    and ``codes_for_keys``) instead of replaying."""
    calls = []
    record = _BlockKeys.record.__func__

    def counted(cls, *args, **kwargs):
        calls.append(1)
        return record(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_BlockKeys, "record", classmethod(counted))
        yield calls


@pytest.mark.parametrize("algorithm", ["streaming", "factorized"])
class TestFitsEqualColdFits:
    def test_gmm_history(self, tiny_db, star, algorithm, request):
        config = dict(
            n_components=2, max_iter=3, tol=0.0, seed=4, algorithm=algorithm
        )
        warm = fit_gmm(tiny_db, star.spec, block_pages=2, **config)
        # The sample pass covers this small join whole, so every EM
        # pass replays it.
        assert warm.fit.extra["join_index"]["passes_replayed"] == (
            config["max_iter"] * EM_PASSES
        )
        request.getfixturevalue("cold_index")
        cold = fit_gmm(tiny_db, star.spec, block_pages=2, **config)
        assert cold.fit.extra["join_index"]["passes_replayed"] == 0
        assert warm.log_likelihood_history == cold.log_likelihood_history
        np.testing.assert_array_equal(
            warm.fit.params.covariances, cold.fit.params.covariances
        )

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_nn_history(self, tiny_db, star, algorithm, shuffle, request):
        config = dict(
            hidden_sizes=(5,), epochs=3, seed=4, shuffle=shuffle,
            algorithm=algorithm, block_pages=2,
        )
        warm = fit_nn(tiny_db, star.spec, **config)
        assert warm.fit.extra["join_index"]["passes_replayed"] == 2
        request.getfixturevalue("cold_index")
        cold = fit_nn(tiny_db, star.spec, **config)
        assert warm.loss_history == cold.loss_history
        for layer_warm, layer_cold in zip(
            warm.model.layers, cold.model.layers
        ):
            np.testing.assert_array_equal(
                layer_warm.weights, layer_cold.weights
            )

    def test_footprint_is_at_most_32_bytes_per_joined_tuple(
        self, tiny_db, star, algorithm
    ):
        """At the default block size, with every lazy array of an
        F-GMM fit (group order, segment starts) materialized."""
        fit = fit_gmm(
            tiny_db, star.spec, n_components=2, max_iter=2, tol=0.0,
            algorithm=algorithm,
        )
        rows = tiny_db[star.fact_name].nrows
        assert 0 < fit.fit.extra["join_index"]["bytes"] <= 32 * rows


class TestFitBookkeeping:
    def test_materialized_fits_carry_no_index(self, tiny_db, star):
        fit = fit_gmm(
            tiny_db, star.spec, n_components=2, max_iter=1, tol=0.0,
            algorithm="materialized",
        )
        assert "join_index" not in fit.fit.extra
        assert "auto" not in fit.fit.extra

    def test_index_counters_reach_the_registry(self, tiny_db, star):
        telemetry = Telemetry()
        fit = fit_nn(
            tiny_db, star.spec, hidden_sizes=(4,), epochs=3,
            telemetry=telemetry,
        )
        snapshot = telemetry.snapshot()
        assert snapshot.value(
            "repro_training_join_index_bytes", algorithm="F-NN"
        ) == fit.fit.extra["join_index"]["bytes"]
        assert snapshot.value(
            "repro_training_join_index_replays_total", algorithm="F-NN"
        ) == 2.0
        # Counted per fit: the second inherits the index and replays
        # all three epochs, and the series adds exactly that.
        again = fit_nn(
            tiny_db, star.spec, hidden_sizes=(4,), epochs=3,
            telemetry=telemetry,
        )
        assert again.fit.extra["join_index"]["passes_replayed"] == 3
        assert telemetry.snapshot().value(
            "repro_training_join_index_replays_total", algorithm="F-NN"
        ) == 5.0

    def test_auto_records_what_the_cost_model_saw(self, tiny_db, star):
        auto = fit_gmm(
            tiny_db, star.spec, n_components=2, max_iter=2, tol=0.0,
            algorithm="auto",
        )
        record = auto.fit.extra["auto"]
        assert set(record) == {
            "chosen", "dense_mults", "factorized_mults",
            "streaming_pages", "materialized_pages",
            "predicted_s", "features",
        }
        assert record["chosen"] == "factorized" == fastest(record)
        assert auto.algorithm == "F-GMM"
        assert record["factorized_mults"] < record["dense_mults"]
        # Two iterations of EM_PASSES passes, each at the Section V-A
        # count.
        one_pass = pass_reads(
            tiny_db, StreamingJoin(tiny_db, star.spec)
        )[0]
        assert record["streaming_pages"] == 2 * EM_PASSES * one_pass
        for arm in ("streaming", "factorized"):
            assert record["features"][arm]["pages"] == (
                record["streaming_pages"]
            )

    def test_auto_records_are_the_ones_captured_before_the_cost_fold(
        self, request, tiny_db, star
    ):
        """Literal ``extra["auto"]`` dicts from the commit before the
        cost modules folded into ``fx/costs.py`` (as ``(dense,
        factorized, streaming pages, materialized pages)``); the GMM
        page totals since recharged at one join pass per EM iteration,
        where the capture charged three.  Since training chooses by
        predicted seconds the record only gained ``predicted_s`` and
        ``features``."""
        binary = request.node.callspec.params["star"] == "binary"
        expected = {
            "gmm": (15000, 10050, 108, 279) if binary
            else (29400, 22208, 132, 366),
            "nn": (6000, 2700, 162, 354) if binary
            else (8400, 2840, 198, 466),
        }
        fits = {
            "gmm": fit_gmm(tiny_db, star.spec, n_components=2, max_iter=2,
                           tol=0.0, algorithm="auto"),
            "nn": fit_nn(tiny_db, star.spec, hidden_sizes=(4,), epochs=3,
                         algorithm="auto"),
        }
        for kind, fit in fits.items():
            dense, factorized, streaming, materialized = expected[kind]
            record = dict(fit.fit.extra["auto"])
            assert record.pop("predicted_s") and record.pop("features")
            assert record == {
                "chosen": "factorized",
                "dense_mults": dense,
                "factorized_mults": factorized,
                "streaming_pages": streaming,
                "materialized_pages": materialized,
            }

    def test_auto_records_an_nn_fit_the_same_way(self, tiny_db, star):
        auto = fit_nn(
            tiny_db, star.spec, hidden_sizes=(4,), epochs=3,
            algorithm="auto",
        )
        record = auto.fit.extra["auto"]
        assert record["chosen"] == "factorized" == fastest(record)
        assert auto.algorithm == "F-NN"
        assert record["factorized_mults"] < record["dense_mults"]
        # One pass per epoch.
        one_pass = pass_reads(
            tiny_db, StreamingJoin(tiny_db, star.spec)
        )[0]
        assert record["streaming_pages"] == 3 * one_pass
        assert set(record["features"]) == {
            "materialized", "streaming", "factorized",
        }

    @pytest.mark.parametrize(
        "fit, cheaper, dearer",
        [
            (lambda db, spec: fit_nn(db, spec, hidden_sizes=(4,),
                                     epochs=1, algorithm="auto"),
             "streaming_pages", "materialized_pages"),
            (lambda db, spec: fit_gmm(db, spec, n_components=2, max_iter=10,
                                      tol=0.0, algorithm="auto"),
             "materialized_pages", "streaming_pages"),
        ],
        ids=["nn, one epoch", "gmm, ten iterations"],
    )
    def test_auto_record_is_the_decision_when_the_counts_tie(
        self, tiny_db, fit, cheaper, dearer
    ):
        """No redundancy (``n_R = n_S``), wide ``T``: the counts tie, a
        one-epoch run moves fewer pages streaming and a long one
        materialized — and the arm the fit ran is the one its record
        predicts fastest.  Both arms pay one 300-page recording pass;
        after it a streaming pass replays at ``|R| + |S|`` = 200 pages
        and a pass over ``T`` reads 150 (plus 150 to write it), so
        materialized moves fewer pages from the eighth iteration."""
        flat = generate_star(
            tiny_db,
            StarSchemaConfig.binary(
                n_s=300, n_r=300, d_s=2, d_r=10, with_target=True, seed=3
            ),
        )
        result = fit(tiny_db, flat.spec)
        record = result.fit.extra["auto"]
        assert record["chosen"] == fastest(record)
        assert result.algorithm[0] == record["chosen"][0].upper()
        assert record["factorized_mults"] == record["dense_mults"]
        assert record[cheaper] < record[dearer]


class TestInitSamplePrefix:
    """``init_sample`` takes the prefix by slicing, not ``take``: the
    sample is the first joined rows, the same on all three paths."""

    def test_sample_is_the_first_joined_rows(self, tiny_db, star):
        table = materialize_join(tiny_db, star.spec, "T")
        wide = table.scan()[:, list(table.schema.feature_positions)]
        d = wide.shape[1]
        engines = [
            FactorizedEMEngine(MaterializedTable(table, block_pages=3), d),
            FactorizedEMEngine(StreamingJoin(tiny_db, star.spec), d),
            FactorizedEMEngine(FactorizedJoin(tiny_db, star.spec), d),
        ]
        for max_rows in (7, 20, 300, 1000):
            for engine in engines:
                sample = engine.init_sample(max_rows)
                np.testing.assert_array_equal(sample, wide[:max_rows])


# -- the database's index -----------------------------------------------------

FITS = {
    "gmm": lambda db, spec, algorithm: fit_gmm(
        db, spec, n_components=2, max_iter=3, tol=0.0, seed=4,
        algorithm=algorithm, block_pages=2,
    ),
    "nn": lambda db, spec, algorithm: fit_nn(
        db, spec, hidden_sizes=(5,), epochs=3, seed=4, shuffle=False,
        algorithm=algorithm, block_pages=2,
    ),
    "nn-shuffle": lambda db, spec, algorithm: fit_nn(
        db, spec, hidden_sizes=(5,), epochs=3, seed=4, shuffle=True,
        algorithm=algorithm, block_pages=2,
    ),
}
# Join passes per fit: EM's sample pass, then its iterations; one per
# epoch.
PASSES = {"gmm": 1 + 3 * EM_PASSES, "nn": 3, "nn-shuffle": 3}
# The fit that fills the slot before the one under test, through
# another arm.
PRIMER = {
    "materialized": ("nn-shuffle", "factorized"),
    "streaming": ("gmm", "materialized"),
    "factorized": ("nn", "streaming"),
}


def assert_same_fit(got, want):
    if hasattr(got, "log_likelihood_history"):
        assert got.log_likelihood_history == want.log_likelihood_history
        for name in ("weights", "means", "covariances"):
            np.testing.assert_array_equal(
                getattr(got.fit.params, name), getattr(want.fit.params, name)
            )
    else:
        assert got.loss_history == want.loss_history
        for layer_got, layer_want in zip(got.model.layers, want.model.layers):
            np.testing.assert_array_equal(layer_got.weights, layer_want.weights)
            np.testing.assert_array_equal(layer_got.bias, layer_want.bias)


def cold_fit(db, spec, kind, algorithm):
    with every_pass_cold():
        return FITS[kind](db, spec, algorithm)


def recreate_fact(db, star):
    """Drop the fact relation and create it again under its name, with
    its row count and its row version (0), but every foreign key moved
    one row down."""
    fact = db[star.fact_name]
    rows = fact.scan().copy()
    for name in star.dimension_names:
        column = fact.schema.fk_position(name)
        rows[:, column] = np.roll(rows[:, column], 1)
    db.drop_relation(star.fact_name)
    db.create_relation(star.fact_name, fact.schema, rows)


@pytest.mark.parametrize("kind", sorted(FITS))
@pytest.mark.parametrize(
    "algorithm", ["materialized", "streaming", "factorized"]
)
def test_a_second_fit_replays_everything_and_equals_a_cold_fit(
    tiny_db, star, algorithm, kind
):
    primer_kind, primer_arm = PRIMER[algorithm]
    FITS[primer_kind](tiny_db, star.spec, primer_arm)
    with counting_records() as records:
        second = FITS[kind](tiny_db, star.spec, algorithm)
    assert records == []        # M-'s materializing pass included
    if algorithm != "materialized":
        assert second.fit.extra["join_index"]["passes_replayed"] == (
            PASSES[kind]
        )
        assert second.fit.extra["join_index"]["rebuilds"] == 0
    assert_same_fit(second, cold_fit(tiny_db, star.spec, kind, algorithm))


class TestTheSlotIsKeyedByIdentity:
    def test_a_recreated_fact_drops_the_index_and_records_afresh(
        self, tiny_db, star
    ):
        FITS["gmm"](tiny_db, star.spec, "streaming")
        assert tiny_db._join_index is not None
        recreate_fact(tiny_db, star)
        assert tiny_db._join_index is None
        with counting_records() as records:
            after = FITS["gmm"](tiny_db, star.spec, "factorized")
        assert records
        assert_same_fit(
            after, cold_fit(tiny_db, star.spec, "gmm", "factorized")
        )

    def test_the_key_alone_refuses_a_recreated_fact(
        self, tiny_db, star, monkeypatch
    ):
        """With the eager drop switched off the stale index stays in
        the slot; a key built from the spec or the names would match
        it and replay the old offsets."""
        monkeypatch.setattr(
            Database, "_drop_join_index", lambda self, relation=None: None
        )
        FITS["nn"](tiny_db, star.spec, "factorized")
        recreate_fact(tiny_db, star)
        assert tiny_db._join_index is not None
        with counting_records() as records:
            after = FITS["nn"](tiny_db, star.spec, "streaming")
        assert records
        assert after.fit.extra["join_index"]["passes_replayed"] == 2
        assert_same_fit(
            after, cold_fit(tiny_db, star.spec, "nn", "streaming")
        )

    def test_an_index_lent_across_a_recreation_is_not_kept(
        self, tiny_db, star
    ):
        with StreamingJoin(tiny_db, star.spec, block_pages=2) as access:
            list(access.batches())
            recreate_fact(tiny_db, star)
        assert tiny_db._join_index is None

    def test_another_block_size_is_another_join(self, tiny_db, star):
        FITS["gmm"](tiny_db, star.spec, "streaming")
        fit_gmm(
            tiny_db, star.spec, n_components=2, max_iter=1, tol=0.0,
            algorithm="streaming", block_pages=3,
        )
        assert tiny_db._join_index.block_pages == 3
        with counting_records() as records:
            FITS["gmm"](tiny_db, star.spec, "streaming")
        assert records
        assert tiny_db._join_index.block_pages == 2


class TestAStaleIndexIsNeverKept:
    @pytest.mark.parametrize(
        "change",
        ["update_dimension", "append_dimension", "append_fact",
         "drop_dimension"],
    )
    def test_a_change_to_a_joined_relation_drops_the_slot(
        self, tiny_db, star, change
    ):
        FITS["gmm"](tiny_db, star.spec, "streaming")
        assert tiny_db._join_index is not None
        name = star.dimension_names[0]
        if change == "update_dimension":
            positions = np.array([0, 7])
            rows = tiny_db[name].scan()[positions]      # keys kept
            rows[:, 1:] += 1.0
            tiny_db.update_rows(name, positions, rows)
        elif change == "append_dimension":
            rows = tiny_db[name].scan()[:2].copy()
            rows[:, 0] += 10_000                        # fresh RIDs
            tiny_db.append_rows(name, rows)
        elif change == "append_fact":
            rows = tiny_db[star.fact_name].scan()[:7].copy()
            rows[:, 0] += 10_000                        # fresh SIDs
            tiny_db.append_rows(star.fact_name, rows)
        else:
            tiny_db.drop_relation(name)
        assert tiny_db._join_index is None

    def test_after_a_dimension_update_the_next_fit_matches_cold(
        self, tiny_db, star
    ):
        FITS["nn-shuffle"](tiny_db, star.spec, "factorized")
        name = star.dimension_names[-1]
        positions = np.array([1, 4])
        rows = tiny_db[name].scan()[positions]
        rows[:, 1:] *= -2.0
        tiny_db.update_rows(name, positions, rows)
        assert tiny_db._join_index is None
        with counting_records() as records:
            after = FITS["nn-shuffle"](tiny_db, star.spec, "factorized")
        assert records
        assert after.fit.extra["join_index"]["passes_replayed"] == 2
        assert_same_fit(
            after, cold_fit(tiny_db, star.spec, "nn-shuffle", "factorized")
        )

    def test_an_update_while_the_index_is_lent_out_is_not_missed(
        self, tiny_db, star
    ):
        name = star.dimension_names[0]
        with FactorizedJoin(tiny_db, star.spec, block_pages=2) as access:
            list(access.batches())
            rows = tiny_db[name].scan()[:1]
            tiny_db.update_rows(name, np.array([0]), rows)
        assert tiny_db._join_index is None

    def test_dropping_the_materialized_table_keeps_the_index(
        self, tiny_db, star
    ):
        """An M- fit drops its ``T`` on exit; ``T`` is not joined."""
        FITS["gmm"](tiny_db, star.spec, "materialized")
        held = tiny_db._join_index
        assert held is not None and held.current()
        assert not any(
            name.startswith("_T_") for name in tiny_db.relation_names
        )

    def test_close_drops_the_index(self, tiny_db, star):
        FITS["gmm"](tiny_db, star.spec, "factorized")
        tiny_db.close()
        assert tiny_db._join_index is None


def test_two_threads_fit_one_star_as_they_would_in_turn(tiny_db, star):
    """Each thread's access borrows the slot or records a private index
    — never both the same one — so the fits are bit-identical to
    sequential ones and together read what two sequential fits read:
    a recording pass at Section V-A's count, a replayed one at
    ``|R| + |S|`` (the default pool holds all of ``S``)."""
    calls = {
        "gmm": lambda: FITS["gmm"](tiny_db, star.spec, "factorized"),
        "nn-shuffle": lambda: FITS["nn-shuffle"](
            tiny_db, star.spec, "streaming"
        ),
    }
    sequential = {name: call() for name, call in calls.items()}
    access = StreamingJoin(tiny_db, star.spec, block_pages=2)
    recording = pass_reads(tiny_db, access)[0]
    replayed = pass_reads(tiny_db, access)[0]
    fact = tiny_db[star.fact_name].npages
    dims = [tiny_db[name].npages for name in star.dimension_names]
    if len(dims) == 1:
        assert recording == dims[0] + math.ceil(dims[0] / 2) * fact
        assert replayed == dims[0] + fact
    else:
        assert recording == replayed == fact + sum(dims)
    for _ in range(4):
        barrier = threading.Barrier(len(calls))
        results = {}

        def run(name):
            barrier.wait()
            results[name] = calls[name]()

        threads = [threading.Thread(target=run, args=(name,)) for name in calls]
        before = tiny_db.stats.snapshot()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        delta = tiny_db.stats.snapshot() - before
        replays = {
            name: result.fit.extra["join_index"]["passes_replayed"]
            for name, result in results.items()
        }
        assert delta.pages_read == sum(
            replays[name] * replayed
            + (PASSES[name] - replays[name]) * recording
            for name in calls
        )
        for name, result in results.items():
            assert_same_fit(result, sequential[name])
            # inherited (every pass replayed), or recorded privately
            # (the first pass recorded the whole join)
            assert replays[name] in (PASSES[name], PASSES[name] - 1)
        assert tiny_db._join_index is not None


def test_the_database_holds_one_index_the_last_trained_joins(tiny_db, star):
    FITS["gmm"](tiny_db, star.spec, "streaming")
    first = tiny_db._join_index
    other = generate_star(
        tiny_db,
        StarSchemaConfig.binary(
            n_s=120, n_r=9, d_s=2, d_r=2, with_target=True, seed=8
        ),
        fact_name="S2", dimension_prefix="Q",
    )
    FITS["nn"](tiny_db, other.spec, "factorized")
    held = tiny_db._join_index
    assert held is not first
    assert [r.name for r in held.relations] == ["S2", "Q1"]
