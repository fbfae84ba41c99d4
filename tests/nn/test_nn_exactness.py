"""Exactness of F-NN: the factorized first layer reproduces the dense
computation bit-for-bit (up to float associativity), and all three
strategies train to the same weights.  M- and S- batches have every
dimension inlined, and on them the one engine *is* the dense step."""

import numpy as np
import pytest

from repro.core.strategies import resolve_strategy
from repro.core.training import open_access, train
from repro.data.synthetic import (
    DimensionSpec,
    StarSchemaConfig,
    generate_star,
)
from repro.errors import ModelError
from repro.join.factorized import FactorizedJoin
from repro.join.stream import StreamingJoin
from repro.nn.base import NNConfig, run_training
from repro.nn.engines import FactorizedNNEngine
from repro.nn.network import build_model


@pytest.fixture
def star(db):
    config = StarSchemaConfig.binary(
        n_s=400, n_r=20, d_s=3, d_r=5, with_target=True, seed=17
    )
    return generate_star(db, config)


@pytest.fixture
def multiway(db):
    config = StarSchemaConfig(
        n_s=300,
        d_s=2,
        dimensions=(DimensionSpec(10, 3), DimensionSpec(7, 4)),
        with_target=True,
        seed=19,
    )
    return generate_star(db, config)


@pytest.fixture(params=["star", "multiway"])
def any_star(request):
    """The binary and the 3-way star."""
    return request.getfixturevalue(request.param)


def weights_equal(a, b, rtol=1e-9):
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_allclose(la.weights, lb.weights, rtol=rtol,
                                   atol=1e-12)
        np.testing.assert_allclose(la.bias, lb.bias, rtol=rtol,
                                   atol=1e-12)


class TestFirstLayerKernels:
    def test_factorized_preactivations_match_dense(self, db, star):
        config = NNConfig(hidden_sizes=(7,), seed=3)
        stream = StreamingJoin(db, star.spec, block_pages=2)
        fact = FactorizedJoin(db, star.spec, block_pages=2)
        model = build_model(8, config)
        fact_engine = FactorizedNNEngine(fact, model)
        for dense_batch, fact_batch in zip(
            stream.batches(), fact.batches()
        ):
            dense_pre = model.first_layer.forward(
                dense_batch.design.fact_block
            )
            fact_pre = fact_engine.first_preactivations(
                fact_batch, fact_engine.dimension_partials(fact_batch)
            )
            np.testing.assert_allclose(
                fact_pre, dense_pre, rtol=1e-10, atol=1e-12
            )

    def test_first_layer_grads_match_dense(self, db, star):
        config = NNConfig(hidden_sizes=(6,), seed=4)
        stream = StreamingJoin(db, star.spec, block_pages=2)
        fact = FactorizedJoin(db, star.spec, block_pages=2)
        model = build_model(8, config)
        fact_engine = FactorizedNNEngine(fact, model.copy())
        for dense_batch, fact_batch in zip(
            stream.batches(), fact.batches()
        ):
            _, dense_grads = model.dense_gradients(
                dense_batch.design.fact_block, dense_batch.targets,
                dense_batch.n,
            )
            _, fact_grads = fact_engine.batch_gradients(
                fact_batch, fact_batch.n
            )
            np.testing.assert_allclose(
                fact_grads[0].weights,
                dense_grads[0].weights,
                rtol=1e-8,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                fact_grads[0].bias, dense_grads[0].bias, rtol=1e-8
            )

    def test_batch_without_target_rejected(self, db):
        config = StarSchemaConfig.binary(
            n_s=50, n_r=5, d_s=2, d_r=2, with_target=False, seed=1
        )
        star = generate_star(db, config)
        fact = FactorizedJoin(db, star.spec)
        engine = FactorizedNNEngine(
            fact, build_model(4, NNConfig(hidden_sizes=(3,)))
        )
        batch = next(iter(fact.batches()))
        with pytest.raises(ModelError, match="TARGET"):
            engine.batch_gradients(batch, batch.n)


class DenseStep(FactorizedNNEngine):
    """The reference step: ``MLP.dense_gradients`` over the wide rows."""

    def batch_gradients(self, batch, normalization):
        return self.model.dense_gradients(
            batch.design.fact_block, batch.targets, normalization
        )


def assert_bit_equal(got, want):
    (loss, grads), (ref_loss, ref_grads) = got, want
    assert loss == ref_loss
    for layer, ref in zip(grads, ref_grads):
        np.testing.assert_array_equal(layer.weights, ref.weights)
        np.testing.assert_array_equal(layer.bias, ref.bias)


@pytest.mark.parametrize("batch_mode", ["full", "per-batch"])
@pytest.mark.parametrize("shuffle", [False, True], ids=["ordered", "shuffled"])
@pytest.mark.parametrize("strategy", ["M", "S"])
class TestInlinedBatchesTakeTheDenseStep:
    """The engine on a batch with no dimension block adds the first
    layer's bias itself and equals the dense step bit for bit."""

    @staticmethod
    def _config(shuffle, batch_mode):
        return NNConfig(
            hidden_sizes=(7,), epochs=3, learning_rate=0.05,
            shuffle=shuffle, batch_mode=batch_mode, seed=6,
        )

    @staticmethod
    def _open(db, star, strategy, config):
        return open_access(
            db, star.spec, resolve_strategy(strategy), 2,
            shuffle=config.shuffle, seed=config.seed, table_name="T_ref",
        )

    def test_per_batch(self, db, any_star, strategy, shuffle, batch_mode):
        config = self._config(shuffle, batch_mode)
        model = build_model(any_star.spec.resolve(db).total_features, config)
        with self._open(db, any_star, strategy, config) as access:
            engine = FactorizedNNEngine(access, model)
            reference = DenseStep(access, model)
            for batch in engine.batches(1):
                assert batch.design.num_dimensions == 0
                normalization = (
                    engine.n_rows if batch_mode == "full" else batch.n
                )
                assert_bit_equal(
                    engine.batch_gradients(batch, normalization),
                    reference.batch_gradients(batch, normalization),
                )

    def test_per_fit(self, db, any_star, strategy, shuffle, batch_mode):
        config = self._config(shuffle, batch_mode)
        fit = train(db, any_star.spec, "nn", strategy, config, block_pages=2)
        model = build_model(any_star.spec.resolve(db).total_features, config)
        with self._open(db, any_star, strategy, config) as access:
            want = run_training(
                DenseStep(access, model), config, algorithm="dense"
            )
        np.testing.assert_array_equal(fit.loss_history, want.loss_history)
        for layer, ref in zip(fit.model.layers, want.model.layers):
            np.testing.assert_array_equal(layer.weights, ref.weights)
            np.testing.assert_array_equal(layer.bias, ref.bias)


class TestFullBatchExactness:
    def test_all_three_strategies_identical(self, db, star):
        config = NNConfig(
            hidden_sizes=(10,), epochs=4, learning_rate=0.1,
            batch_mode="full", seed=6,
        )
        m = train(db, star.spec, "nn", "M", config, block_pages=2)
        s = train(db, star.spec, "nn", "S", config, block_pages=2)
        f = train(db, star.spec, "nn", "F", config, block_pages=2)
        np.testing.assert_allclose(m.loss_history, s.loss_history,
                                   rtol=1e-10)
        np.testing.assert_allclose(s.loss_history, f.loss_history,
                                   rtol=1e-8)
        weights_equal(m.model, s.model)
        weights_equal(s.model, f.model, rtol=1e-8)

    def test_multiway_identical(self, db, multiway):
        config = NNConfig(
            hidden_sizes=(8,), epochs=3, learning_rate=0.05,
            batch_mode="full", seed=2,
        )
        m = train(db, multiway.spec, "nn", "M", config, block_pages=3)
        f = train(db, multiway.spec, "nn", "F", config, block_pages=3)
        np.testing.assert_allclose(m.loss_history, f.loss_history,
                                   rtol=1e-8)
        weights_equal(m.model, f.model, rtol=1e-8)

    @pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu",
                                            "identity"])
    def test_exact_for_every_activation(self, db, star, activation):
        """Layer-1 factorization is exact regardless of activation —
        additivity only matters beyond the first layer."""
        config = NNConfig(
            hidden_sizes=(6,), activation=activation, epochs=2,
            learning_rate=0.05, batch_mode="full", seed=1,
        )
        s = train(db, star.spec, "nn", "S", config, block_pages=2)
        f = train(db, star.spec, "nn", "F", config, block_pages=2)
        weights_equal(s.model, f.model, rtol=1e-8)

    def test_two_hidden_layers(self, db, star):
        """F-NN factorizes only layer 1; deeper nets stay exact."""
        config = NNConfig(
            hidden_sizes=(8, 5), epochs=2, learning_rate=0.05,
            batch_mode="full", seed=3,
        )
        s = train(db, star.spec, "nn", "S", config, block_pages=2)
        f = train(db, star.spec, "nn", "F", config, block_pages=2)
        weights_equal(s.model, f.model, rtol=1e-8)


class TestPerBatchExactness:
    def test_streaming_equals_factorized(self, db, star):
        """S-NN and F-NN consume identical batches, so even mini-batch
        trajectories coincide exactly."""
        config = NNConfig(
            hidden_sizes=(10,), epochs=3, learning_rate=0.1,
            batch_mode="per-batch", seed=6,
        )
        s = train(db, star.spec, "nn", "S", config, block_pages=1)
        f = train(db, star.spec, "nn", "F", config, block_pages=1)
        np.testing.assert_allclose(s.loss_history, f.loss_history,
                                   rtol=1e-8)
        weights_equal(s.model, f.model, rtol=1e-7)

    def test_sgd_shuffle_same_multiset_of_updates(self, db, star):
        """With shuffling, S-NN and F-NN still coincide (same seeded
        permutation drives both access paths)."""
        config = NNConfig(
            hidden_sizes=(6,), epochs=2, learning_rate=0.05,
            shuffle=True, seed=9,
        )
        s = train(db, star.spec, "nn", "S", config, block_pages=1)
        f = train(db, star.spec, "nn", "F", config, block_pages=1)
        weights_equal(s.model, f.model, rtol=1e-7)


class TestResultMetadata:
    def test_labels(self, db, star):
        config = NNConfig(hidden_sizes=(4,), epochs=1)
        assert train(db, star.spec, "nn", "M", config).algorithm == "M-NN"
        assert train(db, star.spec, "nn", "S", config).algorithm == "S-NN"
        assert train(db, star.spec, "nn", "F", config).algorithm == "F-NN"

    def test_m_nn_reports_materialization(self, db, star):
        config = NNConfig(hidden_sizes=(4,), epochs=1)
        result = train(db, star.spec, "nn", "M", config)
        assert result.extra["table_pages"] > 0
        assert result.io.pages_written >= result.extra["table_pages"]

    def test_f_nn_never_writes(self, db, star):
        config = NNConfig(hidden_sizes=(4,), epochs=1)
        assert train(db, star.spec, "nn", "F", config).io.pages_written == 0

    def test_missing_target_raises(self, db):
        config = StarSchemaConfig.binary(
            n_s=50, n_r=5, d_s=2, d_r=2, with_target=False, seed=1
        )
        star = generate_star(db, config)
        with pytest.raises(ModelError, match="TARGET"):
            train(db, star.spec, "nn", "F", NNConfig(hidden_sizes=(3,), epochs=1))
