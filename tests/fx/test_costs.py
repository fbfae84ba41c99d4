"""The one cost model (``repro.fx.costs``): every published count, the
one ``decide()``, the page I/O model and the chooser-less paper
analyses — checked against the golden table captured before the fold,
against closed forms, and against measured page I/O."""

import math
import warnings

import numpy as np
import pytest

from repro.core.strategies import FACTORIZED, MATERIALIZED, STREAMING
from repro.core.training import train
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.errors import ModelError
from repro.fx.costs import (
    COUNT_TABLE,
    FEATURES,
    TRAINING_SECONDS,
    CostModel,
    PlanDecision,
    TrainingPageProfile,
    join_pass_pages,
    layer2_ops_standard,
    layer2_ops_with_reuse,
    layer2_reuse_overhead,
    recommend_training_strategy,
    serving_cost_model,
    streaming_wins_block_size,
    training_cost_model,
)
from repro.gmm.base import EMConfig
from repro.join.bnl import group_blocks
from repro.storage.catalog import Database
from tests.fx import golden_costs as golden

FACTORY = {"serve": serving_cost_model, "train": training_cost_model}
#: Join passes per EM iteration: the driver's, not Algorithm 1's three.
EM_PASSES = COUNT_TABLE["gmm", "train"][1]
NON_FINITE = (math.nan, math.inf, -math.inf)


def argmin(predicted: dict) -> str:
    """The first arm, in tie order (M, S, F), of the fewest seconds."""
    order = [a for a in (MATERIALIZED, STREAMING, FACTORIZED) if a in predicted]
    return min(order, key=lambda arm: predicted[arm])


def binary(phase, kind, d_s, d_r, width_param):
    return FACTORY[phase](
        kind, d_s=d_s, dim_widths=(d_r,), width_param=width_param
    )


def serving_rate(kind, n, m, d_s, d_r, width_param, hit_rate=0.0):
    """Saving rate of a binary-join serving batch at one hit rate."""
    model = binary("serve", kind, d_s, d_r, width_param)
    return model.decide(n, (m,), (hit_rate,)).saving_rate


def gmm_pages(pages_r, pages_s, pages_t, block_pages, iterations):
    """The cost model's ``(streaming, materialized)`` EM page totals for
    a binary join with ``|R|``, ``|S|``, ``|T|`` given in pages."""
    model = binary("train", "gmm", 1, 1, 1)
    profile = TrainingPageProfile(
        fact_pages=pages_s, dim_pages=(pages_r,), joined_pages=pages_t,
        block_pages=block_pages,
    )
    return (
        model.streaming_io_pages(profile, iterations),
        model.materialized_io_pages(profile, iterations),
    )


class TestOneConcreteClass:
    @pytest.mark.parametrize("phase", ["serve", "train"])
    @pytest.mark.parametrize("kind", ["gmm", "nn"])
    def test_factories_build_the_one_class(self, phase, kind):
        model = FACTORY[phase](
            kind, d_s=3, dim_widths=(4,), width_param=2
        )
        assert type(model) is CostModel
        assert (model.kind, model.phase) == (kind, phase)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelError, match="kind"):
            serving_cost_model("svm", d_s=3, dim_widths=(4,),
                               width_param=2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d_s=0, dim_widths=(4,), width_param=2),
            dict(d_s=3, dim_widths=(), width_param=2),
            dict(d_s=3, dim_widths=(4, 0), width_param=2),
            dict(d_s=3, dim_widths=(4,), width_param=0),
            dict(d_s=-3, dim_widths=(4,), width_param=2),
        ],
    )
    def test_invalid_layouts_rejected(self, kwargs):
        with pytest.raises(ModelError):
            CostModel("nn", "serve", **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d_s=5.7, dim_widths=(15,), width_param=3),
            dict(d_s=5, dim_widths=(15.2,), width_param=3),
            dict(d_s=5, dim_widths=(15,), width_param=3.9),
            *(dict(d_s=5, dim_widths=(bad,), width_param=3)
              for bad in NON_FINITE),
            dict(d_s=math.nan, dim_widths=(15,), width_param=3),
            dict(d_s=5, dim_widths=(15,), width_param=math.inf),
        ],
    )
    def test_non_integral_widths_rejected_not_truncated(self, kwargs):
        with pytest.raises(ModelError, match="integer"):
            serving_cost_model("nn", **kwargs)

    def test_distinct_and_hit_rate_arity_checked(self):
        model = serving_cost_model(
            "nn", d_s=3, dim_widths=(4, 5), width_param=2
        )
        with pytest.raises(ModelError, match="distinct"):
            model.factorized_mults(10, (3,))
        with pytest.raises(ModelError, match="hit rates"):
            model.decide(10, (3, 3), (0.5,))


class TestBatchValidation:
    """One validation, applied symmetrically at the one entry."""

    MODEL = serving_cost_model(
        "gmm", d_s=5, dim_widths=(15,), width_param=3
    )

    def test_negative_rows_rejected_by_every_count(self):
        with pytest.raises(ModelError, match="n must be"):
            self.MODEL.dense_mults(-5)
        with pytest.raises(ModelError, match="n must be"):
            self.MODEL.factorized_mults(-5, (3,))
        with pytest.raises(ModelError, match="n must be"):
            self.MODEL.decide(-5, (3,))

    @pytest.mark.parametrize("bad", [-1, *NON_FINITE])
    def test_negative_distinct_rejected(self, bad):
        with pytest.raises(ModelError, match="distinct"):
            self.MODEL.factorized_mults(100, (bad,))

    @pytest.mark.parametrize("bad", [10.5, *NON_FINITE])
    def test_fractional_rows_rejected(self, bad):
        with pytest.raises(ModelError, match="integer"):
            self.MODEL.decide(bad, (3,))

    def test_hit_rates_clamped(self):
        model = serving_cost_model(
            "nn", d_s=5, dim_widths=(15,), width_param=32
        )
        assert model.factorized_mults(64, (64,), (7.0,)) == 64 * 32 * 5
        assert model.factorized_mults(64, (64,), (-3.0,)) == (
            model.factorized_mults(64, (64,))
        )

    def test_empty_batch_is_legal_and_free(self):
        assert self.MODEL.dense_mults(0) == 0
        assert self.MODEL.decide(0, (0,)) == PlanDecision(
            FACTORIZED, 0, (0,), 0, 0
        )


class TestGoldenTable:
    """Decisions did not move: the literal counts captured at the
    parent commit, to the integer, through the one ``CostModel``."""

    @staticmethod
    def check(row, hit_variants):
        (kind, phase, d_s, widths, width_param, n, distinct, dense,
         outcomes) = row
        model = FACTORY[phase](
            kind, d_s=d_s, dim_widths=widths, width_param=width_param
        )
        assert model.dense_mults(n) == dense
        for hits, (factorized, strategy) in zip(hit_variants, outcomes):
            hit_rates = None if hits is None else hits[:len(widths)]
            assert model.factorized_mults(n, distinct, hit_rates) == (
                factorized
            )
            assert model.decide(n, distinct, hit_rates) == PlanDecision(
                strategy, n, distinct, dense, factorized
            )

    @pytest.mark.parametrize("row", golden.COUNTS, ids=repr)
    def test_counts_and_strategy(self, row):
        self.check(row, golden.HIT_RATES)

    @pytest.mark.parametrize("row", golden.ANCHORS, ids=repr)
    def test_benchmark_anchor_shapes(self, row):
        self.check(row, golden.ANCHOR_HIT_RATES)

    def test_every_table_row_is_covered_at_one_and_three_dimensions(self):
        covered = {
            (kind, phase, len(widths))
            for kind, phase, _, widths, *_ in golden.COUNTS
        }
        assert covered == {
            (kind, phase, q)
            for kind in ("gmm", "nn") for phase in ("serve", "train")
            for q in (1, 2, 3)
        }

    @pytest.mark.parametrize("row", golden.PAGES, ids=repr)
    def test_page_totals(self, row):
        kind, index, one_pass, totals = row
        profile = TrainingPageProfile(**golden.PROFILES[index])
        d_s, widths = golden.LAYOUTS[len(profile.dim_pages)]
        model = training_cost_model(
            kind, d_s=d_s, dim_widths=widths,
            width_param=golden.WIDTH_PARAM[kind],
        )
        assert profile.join_pass_pages() == one_pass
        for iterations, (streaming, materialized) in zip(
            golden.ITERATIONS, totals
        ):
            assert model.streaming_io_pages(profile, iterations) == (
                streaming
            )
            assert model.materialized_io_pages(profile, iterations) == (
                materialized
            )

    @pytest.mark.parametrize("row", golden.RECOMMENDATIONS, ids=repr)
    def test_recommendations(self, row):
        """The record's counts and page totals are the golden ones; the
        choice is the argmin of its own predicted seconds, ties to
        materialized, with no materialized arm over the budget."""
        kind, index, rows, distinct = row
        profile = TrainingPageProfile(**golden.PROFILES[index])
        d_s, widths = golden.LAYOUTS[len(distinct)]
        model = training_cost_model(
            kind, d_s=d_s, dim_widths=widths,
            width_param=golden.WIDTH_PARAM[kind],
        )
        for variant in golden.VARIANTS:
            decision = recommend_training_strategy(
                kind, rows=rows, distinct=distinct, d_s=d_s,
                dim_widths=widths, width_param=golden.WIDTH_PARAM[kind],
                pages=profile, **variant,
            )
            counts = model.decide(rows, distinct)
            assert (decision.dense_mults, decision.factorized_mults) == (
                counts.dense_mults, counts.factorized_mults
            )
            iterations = variant["iterations"]
            assert decision.streaming_pages == (
                model.streaming_io_pages(profile, iterations)
            )
            assert decision.materialized_pages == (
                model.materialized_io_pages(profile, iterations)
            )
            over = profile.joined_pages > variant.get(
                "memory_budget_pages", math.inf
            )
            assert (MATERIALIZED in decision.predicted_s) != over, variant
            assert decision.strategy == argmin(decision.predicted_s)


class TestDecisions:
    def test_redundant_workload_chooses_factorized(self):
        model = binary("serve", "nn", 5, 15, 32)
        assert model.decide(128, (4,)).strategy == FACTORIZED

    def test_tie_goes_to_materialized(self):
        # With m == n and a cold cache the NN counts tie exactly.
        model = binary("serve", "nn", 5, 15, 32)
        assert model.decide(64, (64,)).strategy == MATERIALIZED
        assert model.decide(64, (64,), (0.9,)).strategy == FACTORIZED

    def test_saving_rate_in_unit_interval_when_winning(self):
        model = binary("serve", "gmm", 5, 15, 3)
        assert 0 < model.decide(128, (4,)).saving_rate < 1

    def test_multiway_warm_cache_removes_dimension_work(self):
        model = serving_cost_model(
            "nn", d_s=5, dim_widths=(15, 7), width_param=32
        )
        warm = model.factorized_mults(100, (10, 10), (1.0, 1.0))
        assert warm == 100 * 32 * 5
        assert warm < model.factorized_mults(100, (10, 10))

    @pytest.mark.parametrize("kind", ["nn", "gmm"])
    def test_multiway_is_dense_minus_per_dimension_savings(self, kind):
        # Additive structure: with every dimension at full cardinality
        # (m_i = n) the factorized count equals the dense count.
        model = training_cost_model(
            kind, d_s=3, dim_widths=(4, 6), width_param=2
        )
        assert model.factorized_mults(50, (50, 50)) == (
            model.dense_mults(50)
        )
        assert model.factorized_mults(50, (5, 5)) < model.dense_mults(50)

    def test_training_models_ignore_hit_rates(self):
        model = binary("train", "nn", 5, 15, 32)
        assert model.decide(100, (10,), (1.0,)) == (
            model.decide(100, (10,))
        )


class TestIOFormulas:
    """Section V-A, and the NN twin with one pass per epoch."""

    def test_join_pass(self):
        assert join_pass_pages(10, 100, 4) == 10 + 3 * 100

    def test_join_pass_single_block(self):
        assert join_pass_pages(10, 100, 64) == 110

    def test_gmm_totals(self):
        streaming, materialized = gmm_pages(10, 100, 150, 64, 2)
        # EM_PASSES join passes per iteration; join + materialize +
        # EM_PASSES reads of T per iteration.
        assert streaming == 2 * EM_PASSES * 110
        assert materialized == 110 + 150 + 2 * EM_PASSES * 150

    def test_nn_reads_the_data_once_per_epoch(self):
        model = binary("train", "nn", 5, 15, 32)
        profile = TrainingPageProfile(
            fact_pages=100, dim_pages=(10,), joined_pages=150
        )
        assert model.streaming_io_pages(profile, 2) == 2 * 110
        assert model.materialized_io_pages(profile, 2) == 110 + 150 + 300

    def test_multiway_pass_is_additive(self):
        profile = TrainingPageProfile(
            fact_pages=40, dim_pages=(6, 3), joined_pages=90,
            block_pages=4,
        )
        assert profile.join_pass_pages() == 40 + 6 + 3
        model = training_cost_model(
            "gmm", d_s=5, dim_widths=(4, 2), width_param=3
        )
        assert model.streaming_io_pages(profile, 2) == EM_PASSES * 2 * 49
        assert model.materialized_io_pages(profile, 2) == (
            49 + 90 + EM_PASSES * 2 * 90
        )

    @pytest.mark.parametrize("budget, groups", [
        (None, 3), (1, 3), (40, 3), (50, 2), (99, 2), (100, 1), (1024, 1),
    ])
    def test_a_replayed_pass_scans_s_once_per_budget(self, budget, groups):
        """``|R| + g·|S|``, ``g = min(outer blocks, ceil(|S| / budget))``;
        no budget keeps Section V-A's count."""
        profile = TrainingPageProfile(
            fact_pages=100, dim_pages=(10,), joined_pages=150,
            block_pages=4, budget_pages=budget,
        )
        assert profile.join_pass_pages() == 10 + 3 * 100
        assert profile.replayed_pass_pages() == 10 + groups * 100
        model = binary("train", "nn", 5, 15, 32)
        assert model.streaming_io_pages(profile, 3) == (
            310 + 2 * (10 + groups * 100)
        )

    def test_a_multiway_replay_reads_what_a_first_pass_reads(self):
        profile = TrainingPageProfile(
            fact_pages=40, dim_pages=(6, 3), joined_pages=90,
            block_pages=4, budget_pages=1,
        )
        assert profile.replayed_pass_pages() == profile.join_pass_pages()

    def test_validation(self):
        with pytest.raises(ModelError):
            join_pass_pages(0, 10, 1)
        with pytest.raises(ModelError):
            TrainingPageProfile(
                fact_pages=1, dim_pages=(1,), joined_pages=1, budget_pages=0
            )
        with pytest.raises(ModelError):
            gmm_pages(1, 1, 0, 1, 1)
        with pytest.raises(ModelError):
            gmm_pages(1, 1, 1, 1, 0)
        with pytest.raises(ModelError):
            TrainingPageProfile(fact_pages=0, dim_pages=(1,), joined_pages=1)

    def test_profile_arity_checked(self):
        model = training_cost_model(
            "gmm", d_s=5, dim_widths=(4, 2), width_param=3
        )
        profile = TrainingPageProfile(
            fact_pages=40, dim_pages=(12,), joined_pages=90
        )
        with pytest.raises(ModelError, match="dimensions"):
            model.materialized_io_pages(profile, 1)

    def test_crossover_formula(self):
        """At the crossover block size, the two costs are equal (up to
        the ceil in the join term)."""
        pages_r, pages_s, pages_t, iterations = 8, 200, 240, 3
        crossover = streaming_wins_block_size(
            pages_r, pages_s, pages_t, iterations
        )
        # Strictly above the crossover S-GMM is cheaper.
        above = max(1, math.ceil(crossover * 1.5))
        streaming, materialized = gmm_pages(
            pages_r, pages_s, pages_t, above, iterations
        )
        assert streaming <= materialized

    def test_crossover_reads_the_driver_pass_count(self):
        passes = EM_PASSES * 3
        assert streaming_wins_block_size(8, 200, 240, 3) == pytest.approx(
            (passes - 1) * 8 * 200 / ((passes + 1) * 240 - (passes - 1) * 8)
        )

    def test_crossover_infinite_when_t_too_small(self):
        assert streaming_wins_block_size(100, 10, 1, 2) == math.inf


class TestGroupBlocks:
    """A replayed binary pass scans ``S`` once per run of consecutive
    outer blocks :func:`~repro.join.bnl.group_blocks` returns."""

    @pytest.mark.parametrize("seed", range(20))
    def test_runs_cover_the_blocks_in_order_within_the_budget(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 50, size=rng.integers(0, 12)).tolist()
        budget = int(rng.integers(0, 120))
        groups = group_blocks(rows, budget)
        assert [i for group in groups for i in group] == list(range(len(rows)))
        for group, after in zip(groups, [*groups[1:], None]):
            held = sum(rows[i] for i in group)
            assert len(group) >= 1
            assert held <= budget or len(group) == 1
            if after is not None:       # greedy: the next block overflows
                assert held + rows[after.start] > budget

    def test_extremes(self):
        assert group_blocks([], 10) == []
        assert group_blocks([5, 5, 5], 0) == [range(0, 1), range(1, 2),
                                               range(2, 3)]
        assert group_blocks([5, 5, 5], 15) == [range(0, 3)]
        assert group_blocks([20, 1, 1, 20], 10) == [
            range(0, 1), range(1, 3), range(3, 4),
        ]


class TestMeasuredIOMatchesFormulas:
    """Measured page I/O of a fit equals the cost model's own
    ``streaming_io_pages`` / ``materialized_io_pages`` — which charge
    the driver's ``EM_PASSES`` per iteration — plus the one extra pass
    that feeds parameter initialization, at the default buffer pool
    (all of ``S`` fits: a replay reads ``|R| + |S|``) and at one too
    small for two outer blocks' fact rows (a replay reads Section V-A's
    count)."""

    @pytest.fixture(params=[1024, 1], ids=["default-pool", "one-block-pool"])
    def db(self, request, tmp_path):
        database = Database(
            tmp_path / "db", page_size_bytes=256,
            buffer_pages=request.param,
        )
        yield database
        database.close(delete=True)

    @pytest.fixture
    def star(self, db):
        config = StarSchemaConfig.binary(
            n_s=400, n_r=24, d_s=2, d_r=3, seed=3
        )
        return generate_star(db, config)

    @staticmethod
    def fit(db, star, strategy, iterations, block_pages):
        config = EMConfig(
            n_components=2, max_iter=iterations, tol=0.0, seed=1,
            init_sample_size=10_000,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return train(
                db, star.spec, "gmm", strategy, config,
                block_pages=block_pages,
            )

    @staticmethod
    def profile(db, pages_t, block_pages):
        return TrainingPageProfile(
            fact_pages=db["S"].npages, dim_pages=(db["R1"].npages,),
            joined_pages=pages_t, block_pages=block_pages,
            budget_pages=db.buffer_pool.capacity_pages,
        )

    @pytest.mark.parametrize("block_pages", [1, 2, 8])
    def test_s_gmm_measured(self, db, star, block_pages):
        iterations = 2
        profile = self.profile(db, 1, block_pages)
        model = binary("train", "gmm", 1, 1, 1)
        first = profile.join_pass_pages()
        replay = profile.replayed_pass_pages()
        pages_r, pages_s = db["R1"].npages, db["S"].npages
        assert first == join_pass_pages(pages_r, pages_s, block_pages)
        groups = 1 if db.buffer_pool.capacity_pages >= pages_s else (
            math.ceil(pages_r / block_pages)
        )
        assert replay == pages_r + groups * pages_s
        # Cold: the initialization pass records the index, every EM
        # pass replays it.
        cold = self.fit(db, star, "S", iterations, block_pages)
        assert cold.extra["join_index"]["passes_replayed"] == (
            EM_PASSES * iterations
        )
        assert cold.io.pages_read == (
            model.streaming_io_pages(profile, iterations) + replay
        )
        assert cold.io.pages_read == first + EM_PASSES * iterations * replay
        # Warm: the second fit inherits it and replays every pass.
        warm = self.fit(db, star, "S", iterations, block_pages)
        assert warm.extra["join_index"]["passes_replayed"] == (
            EM_PASSES * iterations + 1
        )
        assert warm.extra["join_index"]["fact_scans"] == groups
        assert warm.io.pages_read == (EM_PASSES * iterations + 1) * replay

    def test_m_gmm_measured(self, db, star):
        iterations, block_pages = 2, 4
        result = self.fit(db, star, "M", iterations, block_pages)
        pages_t = result.extra["table_pages"]
        profile = self.profile(db, pages_t, block_pages)
        model = binary("train", "gmm", 1, 1, 1)
        # The model counts the |T| materialization as a write; compare
        # total page I/O, plus one extra read of T that feeds parameter
        # initialization.
        expected_total = model.materialized_io_pages(
            profile, iterations
        ) + pages_t
        assert (
            result.io.pages_read + result.io.pages_written
            == expected_total
        )
        assert result.io.pages_written == pages_t
        assert result.io.pages_read == expected_total - pages_t


#: The e2e training shapes and the 3-way serving star's set-up fits:
#: (rows, distinct, d_s, widths, page profile at the default 8 KiB page
#: and 64-page blocks, (K, EM iterations), (n_h, epochs)).
E2E_SHAPES = {
    "rr100": (200_000, (2_000,), 5, (15,), (1563, (32,), 4348), (5, 3), (50, 2)),
    "rr2": (200_000, (100_000,), 5, (5,), (1563, (589,), 2353), (5, 3), (50, 2)),
    "star3": (100_000, (20_000, 500), 5, (15, 10), (885, (313, 6), 3125),
              (5, 2), (64, 1)),
}
E2E_POOL_PAGES = 1024       # Database()'s default buffer pool


class TestPredictedSeconds:
    """Training picks the argmin of ``TRAINING_SECONDS[kind, arm] ·
    features``: non-negative weights, so a longer run never predicts
    fewer seconds; ties to materialized; no materialized ``T`` over the
    budget."""

    LAYOUT = dict(d_s=5, dim_widths=(15,), width_param=3)
    PROFILE = TrainingPageProfile(
        fact_pages=10, dim_pages=(8,), joined_pages=40, block_pages=4
    )

    def recommend(self, kind="gmm", rows=100, distinct=(10,),
                  iterations=2, **kwargs):
        return recommend_training_strategy(
            kind, rows=rows, distinct=distinct, **self.LAYOUT,
            pages=self.PROFILE, iterations=iterations, **kwargs,
        )

    def test_the_table_covers_every_kind_and_arm(self):
        assert set(TRAINING_SECONDS) == {
            (kind, arm) for kind in ("gmm", "nn")
            for arm in (MATERIALIZED, STREAMING, FACTORIZED)
        }
        for weights in TRAINING_SECONDS.values():
            assert len(weights) == len(FEATURES)
            assert all(math.isfinite(w) and w >= 0 for w in weights)

    @pytest.mark.parametrize("kind", ["gmm", "nn"])
    def test_a_prediction_never_falls_as_rows_or_iterations_grow(self, kind):
        for distinct in ((1,), (10,), (100,)):
            by_rows = [
                self.recommend(kind, rows, distinct).predicted_s
                for rows in (0, 10, 100, 1_000, 100_000)
            ]
            by_iterations = [
                self.recommend(kind, 1_000, distinct, n).predicted_s
                for n in (1, 2, 5, 50)
            ]
            for series in (by_rows, by_iterations):
                for arm in (MATERIALIZED, STREAMING, FACTORIZED):
                    seconds = [predicted[arm] for predicted in series]
                    assert seconds == sorted(seconds), (arm, distinct)

    def test_the_prediction_is_the_weights_times_the_features(self):
        decision = self.recommend("nn", 1_000, (10,), 3)
        assert set(decision.features) == {
            MATERIALIZED, STREAMING, FACTORIZED,
        }
        for arm, seconds in decision.predicted_s.items():
            values = decision.features[arm]
            assert tuple(values) == FEATURES
            assert seconds == pytest.approx(sum(
                w * values[name]
                for w, name in zip(TRAINING_SECONDS["nn", arm], FEATURES)
            ))
        assert decision.strategy == argmin(decision.predicted_s)

    def test_features_are_the_run_totals(self):
        """Binary join, 4-page blocks: 2 outer blocks of 5 RIDs each,
        50 fact rows drawn over each; rows count once per component
        (K = 3)."""
        decision = self.recommend("gmm", 100, (10,), 3)
        model = binary("train", "gmm", 5, 15, 3)
        counts = model.decide(100, (10,))
        passes = 3 * EM_PASSES
        referenced = 10 * (1 - (1 - 2 / 10) ** 50)

        def run(mults, pages, blocks):
            return dict(
                row_units=100 * 3 * passes, mults=mults * passes,
                distinct=referenced * passes, pages=pages,
                blocks=blocks * passes, fit=1,
            )

        expected = {
            MATERIALIZED: run(
                counts.dense_mults, decision.materialized_pages, 10
            ),
            STREAMING: run(counts.dense_mults, decision.streaming_pages, 2),
            FACTORIZED: run(
                counts.factorized_mults, decision.streaming_pages, 2
            ),
        }
        assert decision.features.keys() == expected.keys()
        for arm, values in expected.items():
            assert decision.features[arm] == pytest.approx(values)
        assert decision.streaming_pages == passes * (8 + 2 * 10)
        assert decision.materialized_pages == 28 + (1 + passes) * 40

    def test_a_star_rededuplicates_its_dimensions_per_fact_block(self):
        """Three fact blocks of 50 rows, each drawing over all 5 RIDs of
        the second dimension: 3 · 5 · (1 − (4/5)⁵⁰), not 5."""
        decision = recommend_training_strategy(
            "nn", rows=150, distinct=(150, 5), d_s=2, dim_widths=(3, 4),
            width_param=4, iterations=1,
            pages=TrainingPageProfile(
                fact_pages=12, dim_pages=(9, 1), joined_pages=30,
                block_pages=4,
            ),
        )
        first = 3 * 150 * (1 - (1 - 1 / 150) ** 50)
        second = 3 * 5 * (1 - (1 - 1 / 5) ** 50)
        assert decision.features[FACTORIZED]["distinct"] == pytest.approx(
            first + second
        )
        assert decision.features[FACTORIZED]["blocks"] == 3

    def test_ties_go_to_materialized(self, monkeypatch):
        for key in TRAINING_SECONDS:
            monkeypatch.setitem(TRAINING_SECONDS, key, (0.0,) * len(FEATURES))
        decision = self.recommend()
        assert set(decision.predicted_s.values()) == {0.0}
        assert decision.strategy == MATERIALIZED
        # Without M the dense arm still wins the tie.
        assert self.recommend(memory_budget_pages=39).strategy == STREAMING

    def test_the_memory_clamp_still_excludes_materialized(self, monkeypatch):
        monkeypatch.setitem(
            TRAINING_SECONDS, ("gmm", MATERIALIZED), (0.0,) * len(FEATURES)
        )
        assert self.recommend(memory_budget_pages=40).strategy == MATERIALIZED
        clamped = self.recommend(memory_budget_pages=39)
        assert MATERIALIZED not in clamped.predicted_s
        assert set(clamped.predicted_s) == {STREAMING, FACTORIZED}
        assert MATERIALIZED in clamped.features
        assert clamped.strategy == argmin(clamped.predicted_s)

    @pytest.mark.parametrize("kind, winners", [
        ("gmm", {"rr100": {FACTORIZED}, "rr2": {STREAMING},
                 "star3": {STREAMING}}),
        ("nn", {"rr100": {FACTORIZED}, "rr2": {FACTORIZED, STREAMING},
                "star3": {FACTORIZED, STREAMING}}),
    ])
    def test_the_e2e_shapes_pick_their_measured_winner(self, kind, winners):
        """The shapes the fit never saw (``tools/calibrate_costs.py``
        holds them out), at the buffer pool every fit there runs with:
        ``T`` never fits it, and the arm each picks is the one measured
        fastest (docs/tuning.md) — F- only where rows repeat."""
        for shape, expected in winners.items():
            rows, distinct, d_s, widths, profile, gmm, nn = E2E_SHAPES[shape]
            width_param, iterations = gmm if kind == "gmm" else nn
            fact, dims, joined = profile
            decision = recommend_training_strategy(
                kind, rows=rows, distinct=distinct, d_s=d_s,
                dim_widths=widths, width_param=width_param,
                iterations=iterations, memory_budget_pages=E2E_POOL_PAGES,
                pages=TrainingPageProfile(
                    fact_pages=fact, dim_pages=dims, joined_pages=joined
                ),
            )
            assert MATERIALIZED not in decision.predicted_s
            assert decision.strategy in expected, (shape, decision.predicted_s)


class TestComputeFormulas:
    """Section V-B: the Σ-update outer product (Eq. 14) through the
    ``("gmm", "train")`` row — ``d²`` per dense row, ``d_S² + 2·d_S·d_R``
    per factorized row plus ``d_R²`` per distinct RID, times ``K``."""

    @staticmethod
    def decide(n_s, n_r, d_r, d_s=5, k=3):
        return binary("train", "gmm", d_s, d_r, k).decide(n_s, (n_r,))

    def test_training_model_is_the_outer_cost_times_k(self):
        model = binary("train", "gmm", 5, 15, 3)
        assert model.dense_mults(1000) == 3 * 1000 * 400
        assert model.factorized_mults(1000, (100,)) == (
            3 * (1000 * (25 + 150) + 100 * 225)
        )

    def test_saving_is_difference(self):
        decision = self.decide(5000, 50, 10)
        assert decision.saving_rate == pytest.approx(
            (decision.dense_mults - decision.factorized_mults)
            / decision.dense_mults
        )

    def test_saving_closed_form(self):
        # The multiplication term of Δτ = (n_S − n_R)·d_R·(τ_s + d_R·τ_m),
        # once per component.
        decision = self.decide(1000, 100, 10)
        assert decision.dense_mults - decision.factorized_mults == (
            3 * 900 * 10 * 10
        )

    def test_rate_increases_with_dr(self):
        rates = [
            self.decide(10_000, 100, d_r).saving_rate
            for d_r in (2, 5, 10, 20, 50)
        ]
        assert rates == sorted(rates)

    def test_rate_increases_with_tuple_ratio(self):
        rates = [
            self.decide(n_s, 100, 15).saving_rate
            for n_s in (1_000, 10_000, 100_000)
        ]
        assert rates == sorted(rates)

    def test_rate_bounded_by_one(self):
        assert 0 < self.decide(10**6, 10, 100).saving_rate < 1

    def test_no_saving_when_no_redundancy(self):
        decision = self.decide(100, 100, 5)
        assert decision.saving_rate == 0
        assert decision.strategy == MATERIALIZED


class TestLayer1Forward:
    """Section VI-A1 through the ``("nn", "train")`` table row."""

    @staticmethod
    def rate(n, m, d_r):
        return binary("train", "nn", 5, d_r, 50).decide(n, (m,)).saving_rate

    def test_dense_count(self):
        assert binary("train", "nn", 5, 15, 50).dense_mults(100) == (
            100 * 20 * 50
        )

    def test_factorized_count(self):
        model = binary("train", "nn", 5, 15, 50)
        assert model.factorized_mults(100, (10,)) == (
            100 * 50 * 5 + 10 * 50 * 15
        )

    def test_saving_rate_monotone_in_dr(self):
        rates = [self.rate(10_000, 100, d_r) for d_r in (2, 5, 15, 50, 200)]
        assert rates == sorted(rates)

    def test_saving_rate_monotone_in_tuple_ratio(self):
        rates = [
            self.rate(n, 100, 15) for n in (200, 1_000, 10_000, 100_000)
        ]
        assert rates == sorted(rates)

    def test_saving_rate_bounds(self):
        assert 0 < self.rate(10**6, 10**3, 15) < 1

    def test_no_saving_without_redundancy(self):
        assert self.rate(100, 100, 15) == 0


class TestLayer2Reuse:
    def test_standard_count(self):
        ops = layer2_ops_standard(100, 50, 10)
        assert ops.multiplications == 100 * 10 * 50
        assert ops.additions == 100 * 10 * 50

    def test_reuse_count(self):
        ops = layer2_ops_with_reuse(100, 8, 50, 10)
        assert ops.multiplications == (100 + 8) * 10 * 50

    def test_overhead_always_positive(self):
        """The paper's claim: reuse beyond layer 1 never pays."""
        for n in (10, 1_000, 10**6):
            for m in (1, 10, 1_000):
                assert layer2_reuse_overhead(n, m, 50, 10) > 0

    def test_overhead_scales_with_m(self):
        small = layer2_reuse_overhead(1000, 10, 50, 10)
        large = layer2_reuse_overhead(1000, 500, 50, 10)
        assert large > small

    def test_validation(self):
        with pytest.raises(ModelError):
            layer2_ops_standard(0, 5, 5)
        with pytest.raises(ModelError):
            layer2_ops_with_reuse(10, 0, 5, 5)


class TestBreakEven:
    """Serving break-even tuple ratios through ``decide()``: NN scoring
    wins at any ``n/m > 1``; GMM scoring's break-even
    ``(d_S·d_R + d_R² + d_R) / (2·d_S·d_R + d_R² + d_R − d_S)`` is at
    most 1, and below 1 whenever ``d_R > 1``."""

    def test_serving_break_even_ratios_sit_at_or_below_one(self):
        nn = binary("serve", "nn", 5, 15, 32)
        assert nn.decide(100, (100,)).strategy == MATERIALIZED
        assert nn.decide(101, (100,)).strategy == FACTORIZED
        for d_s, d_r in [(5, 15), (3, 2), (20, 5), (1, 1)]:
            gmm = binary("serve", "gmm", d_s, d_r, 4)
            assert gmm.decide(101, (100,)).strategy == FACTORIZED
            assert gmm.decide(100, (100,)).strategy == (
                FACTORIZED if d_r > 1 else MATERIALIZED
            )


M_ROWS = 100
TUPLE_RATIOS = (10, 30, 100, 300, 1000)
DIM_WIDTHS = (2, 5, 15, 40, 80)


class TestServingMonotonicity:
    """Inference counts: savings grow with n/m and with d_R."""

    @pytest.mark.parametrize("kind,width_param", [("nn", 32), ("gmm", 4)])
    @pytest.mark.parametrize("d_s", [2, 5, 20])
    def test_saving_increases_with_tuple_ratio(self, kind, width_param, d_s):
        rates = [
            serving_rate(kind, M_ROWS * rr, M_ROWS, d_s, 15, width_param)
            for rr in TUPLE_RATIOS
        ]
        assert np.all(np.diff(rates) > 0)

    @pytest.mark.parametrize("kind,width_param", [("nn", 32), ("gmm", 4)])
    @pytest.mark.parametrize("rr", [10, 50, 300])
    def test_saving_increases_with_dim_width(self, kind, width_param, rr):
        rates = [
            serving_rate(kind, M_ROWS * rr, M_ROWS, 5, d_r, width_param)
            for d_r in DIM_WIDTHS
        ]
        assert np.all(np.diff(rates) > 0)


class TestServingFactorizedWins:
    """Acceptance regime: fewer multiplications for any n/m ≥ 10."""

    @pytest.mark.parametrize("kind,width_param", [("nn", 32), ("gmm", 4)])
    @pytest.mark.parametrize("rr", TUPLE_RATIOS)
    @pytest.mark.parametrize("d_r", [2, 15, 80])
    def test_factorized_multiplies_less(self, kind, width_param, rr, d_r):
        decision = binary("serve", kind, 5, d_r, width_param).decide(
            M_ROWS * rr, (M_ROWS,)
        )
        assert decision.factorized_mults < decision.dense_mults
        assert decision.strategy == FACTORIZED

    def test_no_redundancy_means_no_nn_saving(self):
        # With m == n the factorized first layer is just a split of the
        # dense product: never cheaper, never pricier.
        decision = binary("serve", "nn", 5, 15, 32).decide(1000, (1000,))
        assert decision.factorized_mults == decision.dense_mults


class TestServingCacheEffects:
    def test_warm_cache_removes_dimension_side_entirely(self):
        assert binary("serve", "nn", 5, 15, 32).factorized_mults(
            10_000, (100,), (1.0,)
        ) == 10_000 * 32 * 5
        assert binary("serve", "gmm", 5, 15, 4).factorized_mults(
            10_000, (100,), (1.0,)
        ) == 10_000 * 4 * (5 * 5 + 2 * 5)

    def test_saving_rate_grows_with_hit_rate(self):
        rates = [
            serving_rate("gmm", 5_000, 500, 5, 15, 4, hit_rate=h)
            for h in (0.0, 0.5, 0.9, 1.0)
        ]
        assert np.all(np.diff(rates) > 0)
