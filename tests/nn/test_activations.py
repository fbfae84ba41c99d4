"""Activation calculus and the additivity analysis of Section VI-A2."""

import decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.nn.activations import (
    Identity,
    ReLU,
    Sigmoid,
    Tanh,
    available_activations,
    get_activation,
)

ALL = [Identity(), Sigmoid(), Tanh(), ReLU()]

finite_floats = st.floats(
    min_value=-30, max_value=30, allow_nan=False, allow_infinity=False
)


class TestForward:
    def test_identity(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(Identity()(x), x)

    def test_sigmoid_range_and_midpoint(self):
        s = Sigmoid()
        assert s(np.array([0.0]))[0] == pytest.approx(0.5)
        # ±30 keeps 1−σ representable in float64 (σ(37) rounds to 1.0).
        values = s(np.linspace(-30, 30, 101))
        assert (values > 0).all() and (values < 1).all()

    def test_sigmoid_stable_at_extremes(self):
        s = Sigmoid()
        out = s(np.array([-1000.0, 1000.0]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    @staticmethod
    def _where_sigmoid(pre_activation):
        """The ``exp`` formula ``Sigmoid.__call__`` had while it selected
        with ``np.where`` — still the reference at the infinities and
        NaN, where both forms return the same values."""
        a = np.asarray(pre_activation, dtype=np.float64)
        exp_neg = np.exp(-np.abs(a))
        denominator = 1.0 + exp_neg
        return np.where(a >= 0, 1.0 / denominator, exp_neg / denominator)

    @staticmethod
    def _tanh_sigmoid(pre_activation):
        """``½(1 + tanh(a/2))`` written out — the reference
        ``Sigmoid.__call__`` must equal bit for bit (as an ndarray, also
        for a 0-d or scalar input)."""
        a = np.asarray(pre_activation, dtype=np.float64)
        return np.asarray(0.5 * (1 + np.tanh(0.5 * a)))

    @pytest.mark.parametrize(
        "finite",
        [
            np.linspace(-50, 50, 100_001),
            np.array([0.0, -0.0, 745.0, -745.0, 1000.0, -1000.0]),
            np.array(0.3),                              # 0-d
            -1.25,                                      # Python scalar
            np.array([]),
            np.asfortranarray(
                np.random.default_rng(0).normal(size=(7, 5), scale=4)
            ),
            np.random.default_rng(1).normal(size=(4, 3, 2)),
            np.float32([-3.5, 0.0, 2.25, 88.0, -104.0]),
            np.arange(-5, 6),                           # integers
            np.random.default_rng(2).normal(size=(50, 8))[::3, 1::2],
        ],
        ids=[
            "linspace", "zeros-and-extremes", "0-d", "scalar", "empty",
            "fortran", "3-d", "float32", "int", "strided",
        ],
    )
    def test_sigmoid_is_bit_identical_to_the_tanh_formula(self, finite):
        # Nothing may overflow, divide by zero or produce a NaN on
        # finite input.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = Sigmoid()(finite)
        want = self._tanh_sigmoid(finite)
        assert type(got) is type(want) and got.dtype == want.dtype
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        assert not np.shares_memory(got, np.asarray(finite))

    def test_sigmoid_at_infinities_and_nan(self):
        x = np.array([np.inf, -np.inf, np.nan])
        got = Sigmoid()(x)
        np.testing.assert_array_equal(got, self._where_sigmoid(x))
        np.testing.assert_array_equal(got, [1.0, 0.0, np.nan])

    def test_sigmoid_leaves_its_input_alone(self):
        x = np.random.default_rng(3).normal(size=(64, 9), scale=6)
        before = x.copy()
        Sigmoid()(x)
        np.testing.assert_array_equal(x, before)

    def test_tanh(self):
        np.testing.assert_allclose(
            Tanh()(np.array([0.0, 1.0])), [0.0, np.tanh(1.0)]
        )

    def test_relu(self):
        np.testing.assert_array_equal(
            ReLU()(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )


HALF_ULP_OF_ONE = 2.0**-53
WIDE_LONGDOUBLE = np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant


class TestSigmoidAccuracy:
    """``½(1 + tanh(a/2))`` is within ``2⁻⁵³`` of the true σ everywhere
    a hidden unit lives.  The ``exp`` form it replaced reached
    ``1.5 · 2⁻⁵³`` on the same grid; what the tanh form gives up is
    relative accuracy in the negative tail, which no bound here asks
    for."""

    @pytest.mark.skipif(
        not WIDE_LONGDOUBLE, reason="np.longdouble is no wider than float64"
    )
    def test_absolute_error_within_half_an_ulp_of_one(self):
        a = np.linspace(-50, 50, 200_001)
        exact = 1 / (1 + np.exp(-a.astype(np.longdouble)))
        error = np.abs(Sigmoid()(a).astype(np.longdouble) - exact)
        assert error.max() <= HALF_ULP_OF_ONE

    @given(
        values=st.lists(
            st.floats(min_value=-50, max_value=50), min_size=1, max_size=32
        )
    )
    @settings(deadline=None)
    def test_accuracy_range_and_symmetry(self, values):
        a = np.array(values)
        got = Sigmoid()(a)
        with decimal.localcontext(decimal.Context(prec=40)):
            for value, sigma in zip(values, got):
                exact = 1 / (1 + (-decimal.Decimal(value)).exp())
                error = abs(decimal.Decimal(float(sigma)) - exact)
                assert error <= decimal.Decimal(HALF_ULP_OF_ONE), value
        assert ((got >= 0) & (got <= 1)).all()
        assert (np.abs(got + Sigmoid()(-a) - 1) <= 2 * HALF_ULP_OF_ONE).all()


class TestDerivatives:
    @pytest.mark.parametrize("activation", ALL, ids=lambda a: a.name)
    def test_matches_finite_differences(self, activation, rng):
        x = rng.uniform(-3, 3, size=200)
        x = x[np.abs(x) > 1e-3]  # avoid ReLU's kink
        eps = 1e-6
        numeric = (activation(x + eps) - activation(x - eps)) / (2 * eps)
        np.testing.assert_allclose(
            activation.derivative(x), numeric, rtol=1e-5, atol=1e-7
        )

    @pytest.mark.parametrize("activation", ALL, ids=lambda a: a.name)
    def test_output_form_equals_its_textbook_expression(
        self, activation, rng
    ):
        """The in-place forms change no value: σ' = h(1−h), tanh' =
        1−h², relu' = [h > 0] — bit for bit, as
        a fresh float64 array that does not alias ``h``."""
        a = rng.normal(size=(33, 7), scale=3)
        h = activation(a)
        kept = h.copy()
        textbook = {
            "identity": np.ones_like(h),
            "sigmoid": h * (1.0 - h),
            "tanh": 1.0 - h * h,
            "relu": (h > 0).astype(np.float64),
        }[activation.name]
        got = activation.derivative_from_output(h)
        np.testing.assert_array_equal(got, textbook)
        assert got.dtype == np.float64
        assert not np.shares_memory(got, h)
        np.testing.assert_array_equal(h, kept)
        np.testing.assert_array_equal(
            activation.derivative(a),
            {"relu": (a > 0).astype(np.float64)}.get(
                activation.name, textbook
            ),
        )

    def test_relu_derivative_at_sign_change(self):
        np.testing.assert_array_equal(
            ReLU().derivative(np.array([-1.0, 0.0, 1.0])), [0, 0, 1]
        )


class TestAdditivityFlags:
    def test_identity_is_additive(self):
        assert Identity().is_additive

    @pytest.mark.parametrize(
        "activation", [Sigmoid(), Tanh(), ReLU()],
        ids=lambda a: a.name,
    )
    def test_nonlinear_not_additive(self, activation):
        assert not activation.is_additive


class TestAdditivityViolations:
    @given(x=finite_floats, y=finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_identity_never_violates(self, x, y):
        assert Identity().additive_violation(x, y) < 1e-12

    @given(x=finite_floats, y=finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_relu_additive_iff_same_sign(self, x, y):
        violation = ReLU().additive_violation(x, y)
        if ReLU.additive_on(x, y):
            assert violation < 1e-12
        # opposite signs generally violate; spot-check a known case below

    def test_relu_violates_on_opposite_signs(self):
        assert ReLU().additive_violation(5.0, -3.0) > 0
        assert ReLU().additive_violation(-5.0, 3.0) > 0

    @pytest.mark.parametrize(
        "activation", [Sigmoid(), Tanh()],
        ids=lambda a: a.name,
    )
    def test_smooth_nonlinearities_violate(self, activation):
        """The reason Section VI-A2 rules out cross-layer reuse."""
        assert activation.additive_violation(1.0, 1.0) > 1e-3


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_activation("relu").name == "relu"

    def test_instance_passthrough(self):
        instance = Tanh()
        assert get_activation(instance) is instance

    def test_unknown_name(self):
        with pytest.raises(ModelError, match="unknown activation"):
            get_activation("swish")

    def test_available_listing(self):
        names = available_activations()
        assert names == sorted(names)
        assert {"identity", "relu", "sigmoid", "tanh"} <= set(names)
