"""Dense layers and the MLP: forward shapes and gradient checks."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn.layers import DenseLayer
from repro.nn.network import MLP


class TestDenseLayer:
    def test_forward_formula(self, rng):
        layer = DenseLayer(rng.normal(size=(3, 4)), rng.normal(size=3))
        x = rng.normal(size=(5, 4))
        np.testing.assert_allclose(
            layer.forward(x), x @ layer.weights.T + layer.bias
        )

    def test_forward_width_checked(self, rng):
        layer = DenseLayer.initialize(4, 3, rng)
        with pytest.raises(ModelError):
            layer.forward(np.zeros((2, 5)))

    def test_bias_shape_checked(self, rng):
        with pytest.raises(ModelError):
            DenseLayer(rng.normal(size=(3, 4)), np.zeros(4))

    def test_initialize_shapes_and_scale(self, rng):
        layer = DenseLayer.initialize(100, 50, rng)
        assert layer.weights.shape == (50, 100)
        np.testing.assert_array_equal(layer.bias, np.zeros(50))
        assert 0.05 < layer.weights.std() < 0.2  # ~sqrt(2/150)

    def test_initialize_validates(self, rng):
        with pytest.raises(ModelError):
            DenseLayer.initialize(0, 3, rng)

    def test_backward_gradients_numerically(self, rng):
        layer = DenseLayer.initialize(3, 2, rng)
        x = rng.normal(size=(4, 3))
        grad_pre = rng.normal(size=(4, 2))

        def objective(weights, bias):
            return float(
                (grad_pre * (x @ weights.T + bias)).sum()
            )

        grads, grad_x = layer.backward(grad_pre, x)
        eps = 1e-6
        for j in range(2):
            for i in range(3):
                w_plus = layer.weights.copy()
                w_plus[j, i] += eps
                numeric = (
                    objective(w_plus, layer.bias)
                    - objective(layer.weights, layer.bias)
                ) / eps
                assert grads.weights[j, i] == pytest.approx(
                    numeric, rel=1e-4, abs=1e-8
                )
        for j in range(2):
            b_plus = layer.bias.copy()
            b_plus[j] += eps
            numeric = (
                objective(layer.weights, b_plus)
                - objective(layer.weights, layer.bias)
            ) / eps
            assert grads.bias[j] == pytest.approx(numeric, rel=1e-4)
        np.testing.assert_allclose(grad_x, grad_pre @ layer.weights)

    @pytest.mark.parametrize("n_out", [1, 3])
    def test_input_gradient_is_the_matrix_product_bit_for_bit(
        self, rng, n_out
    ):
        """A one-unit layer (every model's output layer) broadcasts its
        input gradient instead of running a GEMM — each entry is one
        product either way; a wider layer keeps the product (its shapes
        would not broadcast).  The result is a fresh array: backprop
        scales it in place."""
        layer = DenseLayer.initialize(50, n_out, rng)
        x = rng.normal(size=(1310, 50))
        grad_pre = rng.normal(size=(1310, n_out))
        _, grad_x = layer.backward(grad_pre, x)
        np.testing.assert_array_equal(grad_x, grad_pre @ layer.weights)
        assert grad_x.shape == (1310, 50)
        assert not np.shares_memory(grad_x, layer.weights)
        assert not np.shares_memory(grad_x, grad_pre)

    def test_apply_grads_descends(self, rng):
        layer = DenseLayer.initialize(2, 2, rng)
        before = layer.weights.copy()
        grads, _ = layer.backward(np.ones((1, 2)), np.ones((1, 2)))
        layer.apply_grads(grads, 0.1)
        np.testing.assert_allclose(
            layer.weights, before - 0.1 * grads.weights
        )

    def test_copy_is_independent(self, rng):
        layer = DenseLayer.initialize(2, 2, rng)
        clone = layer.copy()
        clone.weights[0, 0] += 1
        assert layer.weights[0, 0] != clone.weights[0, 0]


class TestMLPForward:
    def test_architecture(self):
        model = MLP((4, 8, 3, 1), activation="tanh", seed=0)
        assert model.n_inputs == 4
        assert model.n_outputs == 1
        assert [layer.n_in for layer in model.layers] == [4, 8, 3]
        assert [layer.n_out for layer in model.layers] == [8, 3, 1]

    def test_needs_two_sizes(self):
        with pytest.raises(ModelError):
            MLP((4,))

    def test_seed_determinism(self):
        a = MLP((3, 5, 1), seed=42)
        b = MLP((3, 5, 1), seed=42)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_predict_shape(self, rng):
        model = MLP((3, 5, 2), seed=0)
        assert model.predict(rng.normal(size=(7, 3))).shape == (7, 2)

    def test_forward_seam_equals_direct(self, rng):
        """forward == first layer + forward_from_first_preactivation."""
        model = MLP((3, 6, 4, 1), activation="sigmoid", seed=1)
        x = rng.normal(size=(9, 3))
        direct, _ = model.forward(x)
        seamed, _ = model.forward_from_first_preactivation(
            model.first_layer.forward(x)
        )
        np.testing.assert_array_equal(direct, seamed)

    def test_identity_activation_is_linear_map(self, rng):
        model = MLP((3, 4, 1), activation="identity", seed=0)
        x = rng.normal(size=(5, 3))
        # Composition of linear maps: W2(W1 x + b1) + b2.
        w1, b1 = model.layers[0].weights, model.layers[0].bias
        w2, b2 = model.layers[1].weights, model.layers[1].bias
        expected = (x @ w1.T + b1) @ w2.T + b2
        np.testing.assert_allclose(model.predict(x), expected)

    def test_copy_detached(self, rng):
        model = MLP((2, 3, 1), seed=0)
        clone = model.copy()
        clone.layers[0].weights += 1
        assert not np.allclose(
            model.layers[0].weights, clone.layers[0].weights
        )


class TestMLPGradients:
    @pytest.mark.parametrize(
        "activation", ["sigmoid", "tanh", "identity"]
    )
    def test_dense_gradients_numerically(self, activation, rng):
        model = MLP((3, 4, 2, 1), activation=activation, seed=3)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        _, grads = model.dense_gradients(x, y)
        eps = 1e-6
        for layer_index, layer in enumerate(model.layers):
            flat = layer.weights.ravel()
            picks = rng.choice(flat.size, size=min(6, flat.size),
                               replace=False)
            for position in picks:
                original = flat[position]
                flat[position] = original + eps
                loss_plus = model.loss_value(x, y)
                flat[position] = original - eps
                loss_minus = model.loss_value(x, y)
                flat[position] = original
                numeric = (loss_plus - loss_minus) / (2 * eps)
                analytic = grads[layer_index].weights.ravel()[position]
                assert analytic == pytest.approx(
                    numeric, rel=1e-4, abs=1e-7
                ), f"layer {layer_index} weight {position}"

    def test_bias_gradients_numerically(self, rng):
        model = MLP((2, 3, 1), activation="tanh", seed=5)
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        _, grads = model.dense_gradients(x, y)
        eps = 1e-6
        for layer_index, layer in enumerate(model.layers):
            for j in range(layer.bias.size):
                original = layer.bias[j]
                layer.bias[j] = original + eps
                loss_plus = model.loss_value(x, y)
                layer.bias[j] = original - eps
                loss_minus = model.loss_value(x, y)
                layer.bias[j] = original
                numeric = (loss_plus - loss_minus) / (2 * eps)
                assert grads[layer_index].bias[j] == pytest.approx(
                    numeric, rel=1e-4, abs=1e-7
                )

    def test_training_reduces_loss(self, rng):
        model = MLP((3, 8, 1), activation="tanh", seed=0)
        x = rng.normal(size=(100, 3))
        y = np.sin(x @ np.array([1.0, -1.0, 0.5]))
        initial = model.loss_value(x, y)
        for _ in range(60):
            _, grads = model.dense_gradients(x, y)
            model.apply_grads(grads, 0.5)
        assert model.loss_value(x, y) < 0.5 * initial
