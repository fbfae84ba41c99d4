"""The benchmark harness itself: sweeps run, verify, and render."""

import warnings

import pytest

from repro.bench import harness
from repro.bench.experiments import SCALES, BenchScale, active_scale
from repro.bench.harness import SweepPoint, run_sweep
from repro.core.api import FACTORIZED, compare_strategies
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.errors import ModelError
from repro.gmm.base import EMConfig
from repro.nn.base import NNConfig


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def tiny_loader(with_target=False):
    def loader(db):
        star = generate_star(
            db,
            StarSchemaConfig.binary(
                n_s=150, n_r=10, d_s=2, d_r=2,
                with_target=with_target, seed=1,
            ),
        )
        return star.spec
    return loader


class TestSweepPoint:
    def test_best_baseline_speedup(self):
        point = SweepPoint(
            x=1,
            seconds={"materialized": 4.0, "streaming": 3.0,
                     "factorized": 1.5},
        )
        assert point.best_baseline_speedup() == pytest.approx(2.0)


class TestSweepRunners:
    def test_gmm_sweep_runs_and_renders(self):
        result = run_sweep(
            "unit sweep", "x",
            [
                (k, tiny_loader(),
                 EMConfig(n_components=k, max_iter=2, tol=0.0, seed=1))
                for k in (1, 2)
            ],
            "gmm",
        )
        assert [p.x for p in result.points] == [1, 2]
        assert all(
            set(p.seconds) == {"materialized", "streaming", "factorized"}
            for p in result.points
        )
        text = result.render()
        assert "unit sweep" in text
        assert "M (s)  S (s)  F (s)  F speedup" in text

    def test_disagreeing_strategies_fail_the_sweep(self, monkeypatch):
        def skewed(*args):
            comparison = compare_strategies(*args)
            comparison.results[FACTORIZED].params.means[0] += 1.0
            return comparison

        config = EMConfig(n_components=2, max_iter=1, tol=0.0, seed=1)
        monkeypatch.setattr(harness, "compare_strategies", skewed)
        with pytest.raises(ModelError, match="exactness"):
            run_sweep("skewed", "x", [(1, tiny_loader(), config)], "gmm")

    def test_nn_sweep_runs(self):
        config = NNConfig(hidden_sizes=(4,), epochs=1, seed=1)
        result = run_sweep(
            "nn sweep", "x", [(1, tiny_loader(with_target=True), config)],
            "nn",
        )
        assert len(result.points) == 1
        assert all(t > 0 for t in result.points[0].seconds.values())

    def test_nn_full_batch_exactness_enforced(self):
        config = NNConfig(
            hidden_sizes=(4,), epochs=1, seed=1, batch_mode="full"
        )
        result = run_sweep(
            "nn full", "x", [(1, tiny_loader(with_target=True), config)],
            "nn",
        )
        assert result.points

    def test_sweep_emit_writes_file(self, tmp_path):
        config = EMConfig(n_components=2, max_iter=1, tol=0.0, seed=1)
        result = run_sweep("emit", "x", [(1, tiny_loader(), config)], "gmm")
        path = tmp_path / "series.txt"
        result.emit(path)
        assert "emit" in path.read_text()


class TestScales:
    def test_presets_exist(self):
        assert {"tiny", "small", "paper"} <= set(SCALES)

    def test_active_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert active_scale().name == "small"

    def test_active_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert active_scale().name == "tiny"

    def test_active_scale_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "galactic")
        with pytest.raises(ValueError):
            active_scale()

    def test_scales_are_ordered_by_size(self):
        assert SCALES["tiny"].n_r < SCALES["small"].n_r
        assert SCALES["small"].n_r <= SCALES["paper"].n_r

    def test_scale_is_frozen(self):
        with pytest.raises(AttributeError):
            SCALES["tiny"].n_r = 99

    def test_custom_scale_usable(self):
        scale = BenchScale(
            name="custom", n_r=10, rr_values=(5,), rr_fixed=5,
            dr_values=(2,), k_values=(2,), nh_values=(4,),
            hamlet_scale=0.001,
        )
        assert scale.em_iterations == 3
