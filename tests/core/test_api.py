"""The high-level fit_gmm / fit_nn API."""

import warnings

import numpy as np
import pytest

from repro.core.api import (
    compare_strategies,
    fit_gmm,
    fit_nn,
)
from repro.core.strategies import (
    FACTORIZED,
    MATERIALIZED,
    STREAMING,
    resolve_serving_strategy,
    resolve_strategy,
)
from repro.errors import ModelError
from repro.gmm.base import EMConfig
from repro.join.reference import nested_loop_join
from repro.nn.base import NNConfig


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


class TestStrategyResolution:
    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("factorized", FACTORIZED),
            ("F", FACTORIZED),
            ("f-gmm", FACTORIZED),
            ("M", MATERIALIZED),
            ("m-nn", MATERIALIZED),
            ("streaming", STREAMING),
            ("S-GMM", STREAMING),
        ],
    )
    def test_aliases(self, alias, expected):
        assert resolve_strategy(alias) == expected

    def test_unknown(self):
        with pytest.raises(ModelError, match="unknown algorithm"):
            resolve_strategy("quantum")

    @pytest.mark.parametrize(
        "alias,expected",
        [("F", FACTORIZED), ("materialized", MATERIALIZED)],
    )
    def test_serving_aliases(self, alias, expected):
        assert resolve_serving_strategy(alias) == expected

    def test_serving_rejects_streaming(self):
        with pytest.raises(ModelError, match="training-only"):
            resolve_serving_strategy("streaming")


class TestFitGMM:
    def test_returns_usable_model(self, db, binary_star):
        result = fit_gmm(
            db, binary_star.spec, n_components=2, max_iter=3, tol=0.0,
        )
        assert result.algorithm == "F-GMM"
        assert len(result.log_likelihood_history) == 3
        assert result.wall_time_seconds > 0
        assert result.io is not None
        data = np.random.default_rng(0).normal(size=(10, 8))
        labels = result.model.predict(data)
        assert labels.shape == (10,)
        assert set(labels) <= {0, 1}

    def test_result_predict_convenience(self, db, binary_star):
        # GMMResult.predict mirrors NNResult.predict: dense joined rows
        # in, cluster assignments out.
        result = fit_gmm(
            db, binary_star.spec, n_components=2, max_iter=2, tol=0.0,
        )
        joined = nested_loop_join(db, binary_star.spec).design.fact_block
        np.testing.assert_array_equal(
            result.predict(joined), result.model.predict(joined)
        )

    @pytest.mark.parametrize(
        "algorithm", ["materialized", "streaming", "factorized"]
    )
    def test_all_strategies_accessible(self, db, binary_star, algorithm):
        result = fit_gmm(
            db, binary_star.spec, n_components=2, max_iter=2, tol=0.0,
            algorithm=algorithm,
        )
        assert result.model.params.n_components == 2

    def test_explicit_config_wins(self, db, binary_star):
        config = EMConfig(n_components=4, max_iter=2, tol=0.0, seed=3)
        result = fit_gmm(
            db, binary_star.spec, n_components=2, config=config
        )
        assert result.model.params.n_components == 4

    def test_strategies_agree_through_api(self, db, binary_star):
        config = EMConfig(n_components=2, max_iter=3, tol=0.0, seed=1)
        results = [
            fit_gmm(db, binary_star.spec, algorithm=a, config=config)
            for a in ("M", "S", "F")
        ]
        assert results[0].fit.params.allclose(results[1].fit.params)
        assert results[1].fit.params.allclose(results[2].fit.params)


class TestAutoResolution:
    def test_redundant_workload_resolves_factorized(self, db,
                                                    binary_star):
        # binary_star: 500 facts over 25 dimension rows — rr = 20.
        result = fit_gmm(
            db, binary_star.spec, n_components=2, max_iter=2, tol=0.0,
            algorithm="auto",
        )
        assert result.algorithm == "F-GMM"

    @staticmethod
    def flat_star(db):
        """No redundancy: every dimension row referenced once."""
        from repro.data.synthetic import StarSchemaConfig, generate_star

        return generate_star(
            db,
            StarSchemaConfig.binary(
                n_s=500, n_r=500, d_s=2, d_r=10, with_target=True,
                seed=5,
            ),
        )

    @staticmethod
    def assert_ran_the_fastest_predicted_arm(result):
        record = result.fit.extra["auto"]
        predicted = record["predicted_s"]
        assert record["chosen"] == min(predicted, key=predicted.get)
        assert result.algorithm[0] == record["chosen"][0].upper()
        assert record["factorized_mults"] == record["dense_mults"]

    def test_flat_short_run_resolves_the_fastest_predicted_arm(self, db):
        # The counts tie and a single EM iteration moves fewer pages
        # streaming; seconds, not counts, decide.
        result = fit_gmm(
            db, self.flat_star(db).spec, n_components=2, max_iter=1,
            tol=0.0, algorithm="auto",
        )
        self.assert_ran_the_fastest_predicted_arm(result)
        record = result.fit.extra["auto"]
        assert record["streaming_pages"] < record["materialized_pages"]

    def test_flat_long_run_resolves_the_fastest_predicted_arm(self, db):
        result = fit_nn(
            db, self.flat_star(db).spec, hidden_sizes=(4,), epochs=40,
            algorithm="auto",
        )
        self.assert_ran_the_fastest_predicted_arm(result)
        record = result.fit.extra["auto"]
        assert record["materialized_pages"] < record["streaming_pages"]


class TestFitNN:
    def test_returns_usable_model(self, db, binary_star):
        result = fit_nn(
            db, binary_star.spec, hidden_sizes=(6,), epochs=2,
        )
        assert result.algorithm == "F-NN"
        assert len(result.loss_history) == 2
        predictions = result.predict(
            np.random.default_rng(0).normal(size=(5, 8))
        )
        assert predictions.shape == (5, 1)

    def test_loss_decreases(self, db, binary_star):
        result = fit_nn(
            db, binary_star.spec, hidden_sizes=(10,), epochs=8,
            learning_rate=0.1,
        )
        assert result.loss_history[-1] < result.loss_history[0]

    @pytest.mark.parametrize("algorithm", ["M", "S", "F"])
    def test_all_strategies(self, db, binary_star, algorithm):
        result = fit_nn(
            db, binary_star.spec, hidden_sizes=(4,), epochs=1,
            algorithm=algorithm,
        )
        assert result.wall_time_seconds > 0

    def test_explicit_config(self, db, binary_star):
        config = NNConfig(hidden_sizes=(3, 3), epochs=1, seed=1)
        result = fit_nn(db, binary_star.spec, config=config)
        assert [layer.n_out for layer in result.model.layers] == [3, 3, 1]


class TestComparisons:
    def test_gmm_comparison(self, db, binary_star):
        config = EMConfig(n_components=2, max_iter=2, tol=0.0, seed=1)
        comparison = compare_strategies(
            db, binary_star.spec, "gmm", config
        )
        assert set(comparison.results) == {
            MATERIALIZED, STREAMING, FACTORIZED,
        }
        times = comparison.wall_times()
        assert all(t > 0 for t in times.values())
        speedups = comparison.speedup_of_factorized()
        assert set(speedups) == {MATERIALIZED, STREAMING}

    def test_nn_comparison_subset(self, db, binary_star):
        config = NNConfig(hidden_sizes=(4,), epochs=1, seed=1)
        comparison = compare_strategies(
            db, binary_star.spec, "nn", config,
            strategies=("streaming", "factorized"),
        )
        assert set(comparison.results) == {STREAMING, FACTORIZED}

    def test_speedup_without_factorized_run_raises_clearly(
        self, db, binary_star
    ):
        config = EMConfig(n_components=2, max_iter=2, tol=0.0, seed=1)
        comparison = compare_strategies(
            db, binary_star.spec, "gmm", config,
            strategies=("materialized", "streaming"),
        )
        with pytest.raises(
            ModelError, match="factorized strategy was not among the runs"
        ):
            comparison.speedup_of_factorized()


class TestServeIsAPackageAndAFactory:
    """``repro.serve`` names one object: the subpackage, callable."""

    def test_submodule_import_and_call_in_a_fresh_interpreter(self):
        # A fresh process: here ``repro`` is long imported, and the
        # failure was in the import system's attribute walk.
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import repro.serve.cache as c, repro\n"
            "assert c is repro.serve.cache\n"
            "db = repro.Database()\n"
            "service = repro.serve(db, memory_budget=1 << 20)\n"
            "assert type(service) is repro.ModelService\n"
            "service.close(); db.close()\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_the_attribute_is_the_module(self):
        import sys

        import repro
        from repro.core import api

        assert repro.serve is sys.modules["repro.serve"]
        assert repro.serve.PartialCache is repro.PartialCache
        assert api.serve.__module__ == "repro.core.api"
