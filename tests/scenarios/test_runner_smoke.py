"""End-to-end scenario runs at toy scale: the tier-1 smoke for the
harness.  The full adaptation suite lives in benchmarks/scenarios/ and
runs nightly; these scenarios are sized to finish in seconds."""

import pytest

from repro.errors import ModelError
from repro.scenarios import (
    ScenarioSpec,
    check_result,
    run_scenario,
    summarize_trials,
)

TOY = {
    "name": "toy_steady",
    "trials": 1,
    "seed": 5,
    "workload": {
        "n_r": 24, "tuple_ratio": 4, "d_s": 3, "d_r": 4, "join_arity": 1,
    },
    "model": {"kind": "gmm", "width": 2, "epochs": 1,
              "strategy": "factorized"},
    "runtime": {"workers": 1, "max_batch_rows": 64, "max_wait_ms": 0.2},
    "phases": [
        {"name": "steady", "requests": 4, "request_rows": 32, "skew": 0.5},
    ],
    "assertions": [
        {"kind": "outputs_bit_exact"},
        {"kind": "counter_min", "metric": "repro_requests_total", "min": 4},
        {"kind": "span_count_min", "span": "serve.batch", "min": 1},
    ],
}


class TestRunnerSmoke:
    def test_toy_scenario_passes_end_to_end(self):
        result = run_scenario(ScenarioSpec.from_dict(TOY))
        assert result.passed, "\n".join(result.failures())
        check_result(result)  # must not raise
        [trial] = result.trials
        [phase] = trial.phases
        assert phase.rows == 4 * 32
        assert phase.metrics["rows_per_sec"] > 0
        # Scenario-level windows saw every assertion evaluated.
        assert len(trial.assertions) == len(TOY["assertions"])

    def test_budget_cut_adaptation_holds_the_bound(self):
        raw = dict(TOY)
        raw["name"] = "toy_budget_cut"
        raw["runtime"] = dict(TOY["runtime"]) | {"memory_budget": 1 << 16}
        raw["phases"] = [
            {"name": "warm", "requests": 4, "request_rows": 32,
             "skew": 0.5},
            {"name": "cut", "requests": 4, "request_rows": 32,
             "skew": 0.5, "memory_budget": 8192,
             "assertions": [
                 {"kind": "gauge_max",
                  "metric": "repro_store_bytes_resident", "max": 8192},
             ]},
        ]
        result = run_scenario(ScenarioSpec.from_dict(raw))
        assert result.passed, "\n".join(result.failures())

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_a_first_budget_imposed_mid_run_holds_the_bound(self, executor):
        # No initial runtime.memory_budget: the warm phase runs
        # unbounded, and the cut phase imposes the run's first bound.
        # n_r is raised so the warm working set (~11 KiB) exceeds it.
        raw = dict(TOY)
        raw["name"] = "toy_first_budget"
        raw["workload"] = dict(TOY["workload"]) | {"n_r": 400}
        raw["runtime"] = dict(TOY["runtime"]) | {
            "workers": 2, "executor": executor,
        }
        raw["phases"] = [
            {"name": "warm", "requests": 4, "request_rows": 64,
             "skew": 0.5},
            {"name": "cut", "requests": 4, "request_rows": 64,
             "skew": 0.5, "memory_budget": 8192,
             "assertions": [
                 {"kind": "gauge_max",
                  "metric": "repro_store_bytes_resident", "max": 8192},
                 {"kind": "outputs_bit_exact"},
             ]},
        ]
        spec = ScenarioSpec.from_dict(raw)
        assert spec.runtime.memory_budget is None
        result = run_scenario(spec)
        assert result.passed, "\n".join(result.failures())
        [trial] = result.trials
        warm, cut = trial.phases
        assert warm.metrics["bytes_resident"] > 8192
        assert cut.metrics["budget_evicted_rows"] > 0

    def test_tiered_budget_cut_lands_in_demotions(self):
        # The tiered twin of the budget-cut smoke (the full-size
        # variant is benchmarks/scenarios/adapt_budget_cut_tiered.json):
        # with a float32+spill ladder declared, the cut must surface as
        # tier demotions — rows walking down the ladder — while labels
        # stay bit-exact.  n_r is raised so the working set (~12 KiB)
        # actually exceeds the cut bound.
        raw = dict(TOY)
        raw["name"] = "toy_budget_cut_tiered"
        raw["workload"] = dict(TOY["workload"]) | {"n_r": 96}
        raw["runtime"] = dict(TOY["runtime"]) | {
            "memory_budget": 1 << 16,
            "store_tiers": ["float32", "spill"],
        }
        raw["phases"] = [
            {"name": "warm", "requests": 4, "request_rows": 32,
             "skew": 0.5},
            {"name": "cut", "requests": 4, "request_rows": 32,
             "skew": 0.5, "memory_budget": 4096,
             "assertions": [
                 {"kind": "tier_demotions_min", "min": 1},
                 {"kind": "gauge_max",
                  "metric": "repro_store_bytes_resident", "max": 4096},
                 {"kind": "outputs_bit_exact"},
             ]},
        ]
        result = run_scenario(ScenarioSpec.from_dict(raw))
        assert result.passed, "\n".join(result.failures())

    def test_tiers_without_budget_are_rejected_at_load(self):
        raw = dict(TOY)
        raw["name"] = "toy_inert_tiers"
        raw["runtime"] = dict(TOY["runtime"]) | {
            "store_tiers": ["float32"],
        }
        with pytest.raises(ModelError, match="inert"):
            ScenarioSpec.from_dict(raw)

    def test_tier_assertion_without_tiers_is_rejected_at_load(self):
        raw = dict(TOY)
        raw["name"] = "toy_ladderless_assertion"
        raw["phases"] = [
            {"name": "steady", "requests": 4, "request_rows": 32,
             "assertions": [{"kind": "tier_demotions_min", "min": 1}]},
        ]
        with pytest.raises(ModelError, match="store_tiers"):
            ScenarioSpec.from_dict(raw)

    def test_process_executor_scenario_is_bit_exact(self):
        # The multi-process smoke: same toy traffic served by two
        # worker processes must stay bit-exact against the
        # single-threaded reference and satisfy the same telemetry
        # assertions as the threaded run.
        raw = dict(TOY)
        raw["name"] = "toy_process"
        raw["runtime"] = dict(TOY["runtime"]) | {
            "workers": 2, "executor": "process",
        }
        result = run_scenario(ScenarioSpec.from_dict(raw))
        assert result.passed, "\n".join(result.failures())
        [trial] = result.trials
        assert trial.phases[0].rows == 4 * 32

    def test_failing_assertion_surfaces_in_failures(self):
        raw = dict(TOY)
        raw["name"] = "toy_unreachable_bound"
        raw["assertions"] = [
            {"kind": "counter_min",
             "metric": "repro_requests_total", "min": 10_000},
        ]
        result = run_scenario(ScenarioSpec.from_dict(raw))
        assert not result.passed
        [failure] = result.failures()
        assert "counter_min" in failure and "[FAIL]" in failure
        with pytest.raises(ModelError, match="toy_unreachable_bound"):
            check_result(result)


class TestSummaries:
    def test_median_and_ci_over_trials(self):
        class FakePhase:
            def __init__(self, value):
                self.name = "p"
                self.metrics = {"rows_per_sec": value}

        class FakeTrial:
            def __init__(self, value):
                self.metrics = {"rows_per_sec": value}
                self.phases = [FakePhase(value)]

        summary = summarize_trials([FakeTrial(v) for v in (10.0, 20.0, 30.0)])
        entry = summary["scenario.rows_per_sec"]
        assert entry["median"] == 20.0
        assert entry["mean"] == pytest.approx(20.0)
        assert entry["ci95"] > 0
        assert entry["n"] == 3
        assert summary["phase:p.rows_per_sec"]["median"] == 20.0
