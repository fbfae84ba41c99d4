"""BatchPlanner: cost-model-driven per-batch strategy choice."""

import numpy as np
import pytest

from repro.core.strategies import FACTORIZED, MATERIALIZED
from repro.errors import ModelError
from repro.fx.costs import PlanDecision
from repro.runtime.planner import BatchPlanner, PlannerStats
from tests.fx import golden_costs as golden


def fks_with_distinct(n, m):
    """n FK values drawing from m distinct RIDs (every RID appears)."""
    return [np.arange(n, dtype=np.int64) % max(m, 1)]


def buildable(case):
    """Serving rows a real FK batch can realise (``m_i ≤ n``)."""
    _, phase, _, _, _, n, distinct, *_ = case[0]
    return phase == "serve" and all(
        m <= n and (m > 0 or n == 0) for m in distinct
    )


# (golden row, the hit-rate variants its outcomes were captured at)
GOLDEN_BATCHES = list(filter(buildable, (
    [(row, golden.HIT_RATES) for row in golden.COUNTS]
    + [(row, golden.ANCHOR_HIT_RATES) for row in golden.ANCHORS]
)))


class TestCostCounts:
    """``plan()`` over real FK arrays lands on the golden table
    captured before the cost-model fold (``tests/fx/golden_costs.py``)
    — same counts, same strategy, at one to three dimensions."""

    @pytest.mark.parametrize("row, variants", GOLDEN_BATCHES, ids=repr)
    def test_plan_matches_the_golden_table(self, row, variants):
        kind, _, d_s, widths, width_param, n, distinct, dense, outcomes = row
        planner = BatchPlanner(kind, d_s, widths, width_param)
        fks = [fks_with_distinct(n, m)[0] for m in distinct]
        for hits, (factorized, strategy) in zip(variants, outcomes):
            decision = planner.plan(
                fks, None if hits is None else hits[:len(widths)]
            )
            assert decision == PlanDecision(
                strategy, n, distinct, dense, factorized
            )

    def test_warm_cache_discounts_dimension_work(self):
        planner = BatchPlanner("nn", d_s=5, dim_widths=(15,), width_param=32)
        batch = fks_with_distinct(100, 10)
        cold = planner.plan(batch, (0.0,)).factorized_mults
        warm = planner.plan(batch, (1.0,)).factorized_mults
        assert warm < cold
        assert warm == 100 * 32 * 5  # fact-side work only

    def test_the_runtime_decision_is_the_cost_models_record(self):
        import repro.runtime
        from repro.fx import costs

        assert repro.runtime.PlanDecision is costs.PlanDecision is PlanDecision


class TestDecisions:
    def test_redundant_batch_plans_factorized(self):
        planner = BatchPlanner("nn", d_s=5, dim_widths=(15,), width_param=32)
        decision = planner.plan(fks_with_distinct(128, 4))
        assert decision.strategy == FACTORIZED
        assert decision.rows == 128
        assert decision.distinct == (4,)
        assert decision.factorized_mults < decision.dense_mults
        assert 0 < decision.saving_rate < 1

    def test_all_distinct_cold_nn_batch_plans_materialized(self):
        # With m == n and a cold cache the NN counts tie exactly; the
        # tie goes to the dense path (no cache maintenance).
        planner = BatchPlanner("nn", d_s=5, dim_widths=(15,), width_param=32)
        decision = planner.plan(fks_with_distinct(64, 64))
        assert decision.strategy == MATERIALIZED
        assert decision.factorized_mults == decision.dense_mults

    def test_warm_cache_flips_the_tie_to_factorized(self):
        planner = BatchPlanner("nn", d_s=5, dim_widths=(15,), width_param=32)
        decision = planner.plan(fks_with_distinct(64, 64), (0.9,))
        assert decision.strategy == FACTORIZED

    def test_multiway_redundant_batch_plans_factorized(self):
        planner = BatchPlanner(
            "gmm", d_s=3, dim_widths=(4, 2), width_param=3
        )
        fks = [
            np.arange(90, dtype=np.int64) % 3,
            np.arange(90, dtype=np.int64) % 5,
        ]
        decision = planner.plan(fks)
        assert decision.strategy == FACTORIZED
        assert decision.distinct == (3, 5)

    def test_empty_batch_short_circuits(self):
        planner = BatchPlanner("nn", d_s=5, dim_widths=(15,), width_param=32)
        decision = planner.plan([np.zeros(0, dtype=np.int64)])
        assert decision.rows == 0
        assert decision.dense_mults == 0

    def test_hit_rates_clamped_to_unit_interval(self):
        planner = BatchPlanner("nn", d_s=5, dim_widths=(15,), width_param=32)
        decision = planner.plan(fks_with_distinct(64, 64), (7.0,))
        assert decision.factorized_mults == 64 * 32 * 5

    def test_fk_arity_mismatch_rejected(self):
        planner = BatchPlanner("nn", d_s=5, dim_widths=(15, 3), width_param=8)
        with pytest.raises(ModelError, match="FK arrays"):
            planner.plan(fks_with_distinct(10, 2))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="svm", d_s=5, dim_widths=(15,), width_param=8),
            dict(kind="nn", d_s=0, dim_widths=(15,), width_param=8),
            dict(kind="nn", d_s=5, dim_widths=(), width_param=8),
        ],
    )
    def test_invalid_construction_rejected(self, kwargs):
        with pytest.raises(ModelError):
            BatchPlanner(**kwargs)


class TestPlannerStats:
    def test_decisions_accumulate_and_recent_is_bounded(self):
        planner = BatchPlanner("nn", d_s=5, dim_widths=(15,), width_param=32)
        stats = PlannerStats(recent_limit=4)
        for _ in range(6):
            stats.record(planner.plan(fks_with_distinct(32, 2)))
        stats.record(planner.plan(fks_with_distinct(8, 8)))
        assert stats.decisions[FACTORIZED] == 6
        assert stats.decisions[MATERIALIZED] == 1
        assert len(stats.recent) == 4
        assert stats.recent[-1].strategy == MATERIALIZED


class TestAdaptiveRunReplaysTheParentCommit:
    """A deterministic adaptive run — one worker, one request in flight
    at a time, cold → warm cache — logs the ``PlanDecision`` sequence
    captured at the commit before the cost-model fold: live hit rates,
    float discounting and rounding all land on the same integers."""

    SIZES = (1, 3, 40, 200, 2, 40, 7, 200, 1, 64)
    EXPECTED = {
        "gmm": [
            (FACTORIZED, 1, (1, 1), 180, 144),
            (FACTORIZED, 3, (3, 3), 540, 432),
            (FACTORIZED, 40, (15, 9), 7200, 2716),
            (FACTORIZED, 200, (15, 9), 36000, 9097),
            (FACTORIZED, 2, (1, 1), 360, 125),
            (FACTORIZED, 40, (15, 9), 7200, 2199),
            (FACTORIZED, 7, (7, 6), 1260, 489),
            (FACTORIZED, 200, (15, 9), 36000, 8367),
            (FACTORIZED, 1, (1, 1), 180, 61),
            (FACTORIZED, 64, (15, 9), 11520, 2847),
        ],
        "nn": [
            (MATERIALIZED, 1, (1, 1), 54, 54),
            (MATERIALIZED, 3, (3, 3), 162, 162),
            (FACTORIZED, 40, (15, 9), 2160, 1188),
            (FACTORIZED, 200, (15, 9), 10800, 4068),
            (FACTORIZED, 2, (1, 1), 108, 54),
            (FACTORIZED, 40, (15, 9), 2160, 945),
            (FACTORIZED, 7, (7, 6), 378, 204),
            (FACTORIZED, 200, (15, 9), 10800, 3730),
            (FACTORIZED, 1, (1, 1), 54, 26),
            (FACTORIZED, 64, (15, 9), 3456, 1252),
        ],
    }

    def test_recent_decisions_match(self, db, multiway_star):
        import warnings

        from repro.core.api import fit_gmm, fit_nn, serve_runtime

        spec = multiway_star.spec
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
            nn = fit_nn(db, spec, hidden_sizes=(6,), epochs=1, seed=1)
        fact = spec.resolve(db).fact
        rows = fact.scan()
        rng = np.random.default_rng(5)
        with serve_runtime(db, num_workers=1, max_wait_ms=0.0) as rt:
            rt.register_gmm("gmm", gmm, spec)
            rt.register_nn("nn", nn, spec)
            for size in self.SIZES:
                pick = rows[rng.integers(0, len(rows), size=size)]
                fks = [
                    pick[:, fact.schema.fk_position(name)].astype(np.int64)
                    for name in ("R1", "R2")
                ]
                features = fact.project_features(pick)
                rt.predict("gmm", features, fks)
                rt.predict("nn", features, fks)
            for name, expected in self.EXPECTED.items():
                assert rt.planner_stats(name).recent == [
                    PlanDecision(*row) for row in expected
                ]
