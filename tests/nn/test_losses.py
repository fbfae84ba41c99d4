"""The one loss's values and gradients (checked numerically)."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn.losses import HalfMSE


class TestHalfMSE:
    def test_value_formula(self):
        loss = HalfMSE()
        outputs = np.array([[1.0], [3.0]])
        targets = np.array([0.0, 1.0])
        # (1 + 4) / (2*2)
        assert loss.value(outputs, targets) == pytest.approx(1.25)

    def test_zero_at_perfect_fit(self, rng):
        targets = rng.normal(size=7)
        assert HalfMSE().value(targets[:, None], targets) == 0.0

    def test_gradient_matches_finite_differences(self, rng):
        loss = HalfMSE()
        outputs = rng.normal(size=(6, 1))
        targets = rng.normal(size=6)
        grad = loss.gradient(outputs, targets)
        eps = 1e-6
        for i in range(6):
            bumped = outputs.copy()
            bumped[i, 0] += eps
            numeric = (
                loss.value(bumped, targets) - loss.value(outputs, targets)
            ) / eps
            assert grad[i, 0] == pytest.approx(numeric, rel=1e-4)

    def test_normalization_override(self, rng):
        loss = HalfMSE()
        outputs = rng.normal(size=(4, 1))
        targets = rng.normal(size=4)
        assert loss.value(outputs, targets, normalization=8) == (
            pytest.approx(loss.value(outputs, targets) / 2)
        )
        np.testing.assert_allclose(
            loss.gradient(outputs, targets, normalization=8),
            loss.gradient(outputs, targets) / 2,
        )

    def test_split_batches_equal_single_batch(self, rng):
        """Accumulating with total-N normalization is exact — the
        property full-batch training across access paths relies on."""
        loss = HalfMSE()
        outputs = rng.normal(size=(10, 1))
        targets = rng.normal(size=10)
        whole = loss.value(outputs, targets)
        split = loss.value(
            outputs[:4], targets[:4], normalization=10
        ) + loss.value(outputs[4:], targets[4:], normalization=10)
        assert split == pytest.approx(whole)

    def test_empty_batch_rejected(self):
        with pytest.raises(ModelError):
            HalfMSE().value(np.zeros((0, 1)), np.zeros(0))

    def test_shape_mismatch(self):
        with pytest.raises(ModelError):
            HalfMSE().value(np.zeros((3, 1)), np.zeros(4))
