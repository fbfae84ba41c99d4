"""ScenarioSpec validation: strict, total, and loud at load time."""

import json
from pathlib import Path

import pytest

from repro.errors import ModelError
from repro.scenarios import ScenarioSpec, load_scenario, load_scenarios

REPO_ROOT = Path(__file__).resolve().parents[2]


def base() -> dict:
    """The smallest valid scenario document."""
    return {"name": "t", "phases": [{"name": "steady"}]}


class TestDefaults:
    def test_minimal_document_fills_defaults(self):
        spec = ScenarioSpec.from_dict(base())
        assert spec.trials == 3
        assert spec.workload.n_s == spec.workload.n_r * 50
        assert spec.model.kind == "nn"
        assert spec.runtime.memory_budget is None
        assert spec.phases[0].requests == 24
        assert spec.phases[0].skew == 0.0

    def test_committed_suite_loads_and_validates(self):
        specs = load_scenarios(REPO_ROOT / "benchmarks" / "scenarios")
        names = [spec.name for spec in specs]
        assert "adapt_budget_cut" in names
        assert "adapt_skew_flip" in names
        assert "adapt_update_storm" in names
        for spec in specs:
            assert spec.trials >= 3
            assert spec.all_assertions  # a scenario must verify something


class TestUnknownKeys:
    def test_scenario_level(self):
        raw = base() | {"warmup": 3}
        with pytest.raises(ModelError, match=r"unknown key.*warmup"):
            ScenarioSpec.from_dict(raw)

    def test_workload_level(self):
        raw = base() | {"workload": {"n_rows": 10}}
        with pytest.raises(ModelError, match="scenario.workload"):
            ScenarioSpec.from_dict(raw)

    def test_runtime_level(self):
        raw = base() | {"runtime": {"theads": 4}}
        with pytest.raises(ModelError, match="scenario.runtime"):
            ScenarioSpec.from_dict(raw)

    def test_runtime_admission_is_no_longer_a_key(self):
        raw = base() | {"runtime": {"admission": "lru"}}
        with pytest.raises(ModelError, match=r"unknown key.*admission"):
            ScenarioSpec.from_dict(raw)

    def test_phase_level(self):
        raw = base()
        raw["phases"][0]["reqests"] = 9
        with pytest.raises(ModelError, match=r"phases\[0\]"):
            ScenarioSpec.from_dict(raw)

    def test_assertion_level(self):
        raw = base()
        raw["phases"][0]["assertions"] = [
            {"kind": "hit_rate_min", "min": 0.5, "mim": 0.6}
        ]
        with pytest.raises(ModelError, match="mim"):
            ScenarioSpec.from_dict(raw)


class TestRanges:
    def test_fk_skew_out_of_range(self):
        raw = base() | {"workload": {"fk_skew": 5.0}}
        with pytest.raises(ModelError, match=r"Zipf exponent"):
            ScenarioSpec.from_dict(raw)

    def test_phase_skew_negative(self):
        raw = base()
        raw["phases"][0]["skew"] = -0.5
        with pytest.raises(ModelError, match=r"Zipf exponent"):
            ScenarioSpec.from_dict(raw)

    def test_non_positive_knobs(self):
        raw = base() | {"trials": 0}
        with pytest.raises(ModelError, match="trials"):
            ScenarioSpec.from_dict(raw)
        raw = base() | {"runtime": {"workers": -1}}
        with pytest.raises(ModelError, match="workers"):
            ScenarioSpec.from_dict(raw)

    def test_bad_executor(self):
        raw = base() | {"runtime": {"executor": "fiber"}}
        with pytest.raises(
            ModelError, match="'thread' or 'process'"
        ):
            ScenarioSpec.from_dict(raw)

    def test_executor_defaults_to_thread(self):
        assert ScenarioSpec.from_dict(base()).runtime.executor == "thread"


class TestCrossFieldContradictions:
    def test_budget_too_small_for_worker_pool(self):
        raw = base() | {
            "runtime": {"workers": 2, "memory_budget": 4096}
        }
        with pytest.raises(ModelError, match="contradicts"):
            ScenarioSpec.from_dict(raw)

    def test_phase_cut_below_worker_floor(self):
        raw = base() | {
            "runtime": {"workers": 2, "memory_budget": 1 << 20}
        }
        raw["phases"][0]["memory_budget"] = 100
        with pytest.raises(ModelError, match="contradicts"):
            ScenarioSpec.from_dict(raw)

    def test_phase_budget_without_initial_budget_validates(self):
        # Every store runs the governor, so a phase may impose the
        # first bound of the run.
        raw = base()
        raw["phases"][0]["memory_budget"] = 1 << 20
        spec = ScenarioSpec.from_dict(raw)
        assert spec.runtime.memory_budget is None
        assert spec.phases[0].memory_budget == 1 << 20

    def test_duplicate_phase_names(self):
        raw = base()
        raw["phases"] = [{"name": "p"}, {"name": "p"}]
        with pytest.raises(ModelError, match="duplicate phase"):
            ScenarioSpec.from_dict(raw)

    def test_empty_phases(self):
        raw = base() | {"phases": []}
        with pytest.raises(ModelError, match="non-empty"):
            ScenarioSpec.from_dict(raw)

    def test_bit_exact_rejected_for_adaptive_strategy(self):
        raw = base() | {
            "model": {"kind": "gmm", "strategy": "adaptive"},
            "assertions": [{"kind": "outputs_bit_exact"}],
        }
        with pytest.raises(ModelError, match="fixed serving strategy"):
            ScenarioSpec.from_dict(raw)

    def test_bit_exact_rejected_for_nn_outputs(self):
        # BLAS summation order varies with micro-batch shape, so
        # continuous NN outputs are only float-close, never bit-exact.
        raw = base() | {
            "model": {"kind": "nn", "strategy": "factorized"},
            "assertions": [{"kind": "outputs_bit_exact"}],
        }
        with pytest.raises(ModelError, match="BLAS"):
            ScenarioSpec.from_dict(raw)

    def test_bit_exact_allowed_for_fixed_gmm(self):
        raw = base() | {
            "model": {"kind": "gmm", "strategy": "factorized"},
            "assertions": [{"kind": "outputs_bit_exact"}],
        }
        spec = ScenarioSpec.from_dict(raw)
        assert spec.assertions[0].kind == "outputs_bit_exact"

    def test_span_assertion_rejected_in_phase_scope(self):
        # Span quantile reservoirs are cumulative; they cannot be
        # windowed per phase.
        raw = base()
        raw["phases"][0]["assertions"] = [
            {"kind": "span_p95_max", "span": "serve.batch", "max_s": 1.0}
        ]
        with pytest.raises(ModelError, match="scenario-level"):
            ScenarioSpec.from_dict(raw)


class TestAssertionParsing:
    def test_unknown_kind(self):
        raw = base() | {"assertions": [{"kind": "latency_max"}]}
        with pytest.raises(ModelError, match="unknown assertion kind"):
            ScenarioSpec.from_dict(raw)

    def test_missing_required_field(self):
        raw = base() | {"assertions": [{"kind": "quantile_max", "q": 0.95}]}
        with pytest.raises(ModelError, match="requires field"):
            ScenarioSpec.from_dict(raw)

    def test_q_out_of_open_interval(self):
        raw = base() | {
            "assertions": [
                {
                    "kind": "quantile_max",
                    "metric": "m",
                    "q": 1.0,
                    "max_s": 1.0,
                }
            ]
        }
        with pytest.raises(ModelError, match=r"q must be in \(0, 1\)"):
            ScenarioSpec.from_dict(raw)

    def test_band_min_above_max(self):
        raw = base() | {
            "assertions": [
                {"kind": "dedup_ratio_band", "min": 3.0, "max": 2.0}
            ]
        }
        with pytest.raises(ModelError, match="exceeds max"):
            ScenarioSpec.from_dict(raw)

    def test_labels_must_be_string_mapping(self):
        raw = base() | {
            "assertions": [
                {
                    "kind": "counter_max",
                    "metric": "m",
                    "max": 1,
                    "labels": {"model": 3},
                }
            ]
        }
        with pytest.raises(ModelError, match="labels"):
            ScenarioSpec.from_dict(raw)


class TestLoading:
    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelError, match="broken.json"):
            load_scenario(path)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ModelError, match="no \\*.json"):
            load_scenarios(tmp_path)

    def test_load_scenario_round_trip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(base()))
        assert load_scenario(path).name == "t"
