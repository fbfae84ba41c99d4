"""Factorized ridge matches the dense solution exactly."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.linear.models import fit_ridge
from repro.storage.schema import (
    Schema,
    features,
    foreign_key,
    key,
    target,
)


def build_star(db, rng, *, n_s=500, n_r=20, d_s=3, d_r=4,
               targets=None, seed_fk=None, offset=0.0):
    """``S ⋈ R``, every feature and the target ``offset`` from zero."""
    r_rows = np.column_stack(
        [np.arange(n_r, dtype=np.float64), rng.normal(size=(n_r, d_r)) + offset]
    )
    db.create_relation(
        "R", Schema([key("rid"), *features("a", d_r)]), r_rows
    )
    fks = rng.integers(0, n_r, size=n_s) if seed_fk is None else seed_fk
    fks[:n_r] = np.arange(n_r)
    s_feats = rng.normal(size=(n_s, d_s)) + offset
    joined = np.concatenate([s_feats, r_rows[fks, 1:]], axis=1)
    if targets is None:
        true_w = rng.normal(size=d_s + d_r)
        targets = (joined - offset) @ true_w + 0.5 + offset + rng.normal(
            scale=0.1, size=n_s
        )
    s_rows = np.column_stack(
        [
            np.arange(n_s, dtype=np.float64),
            targets,
            s_feats,
            fks.astype(np.float64),
        ]
    )
    db.create_relation(
        "S",
        Schema(
            [key("sid"), target("y"), *features("x", d_s),
             foreign_key("fk", "R")]
        ),
        s_rows,
    )
    from repro.join.spec import JoinSpec

    return JoinSpec.binary("S", "R"), joined, targets


class TestRidge:
    def test_matches_dense_normal_equations(self, db, rng):
        spec, joined, targets = build_star(db, rng)
        alpha = 1e-2
        model = fit_ridge(db, spec, alpha=alpha)
        centered = joined - joined.mean(axis=0)
        centered_targets = targets - targets.mean()
        expected = np.linalg.solve(
            centered.T @ centered + alpha * np.eye(joined.shape[1]),
            centered.T @ centered_targets,
        )
        np.testing.assert_allclose(model.weights, expected, rtol=1e-8)
        expected_intercept = targets.mean() - joined.mean(axis=0) @ expected
        assert model.intercept == pytest.approx(
            expected_intercept, rel=1e-8
        )

    @pytest.mark.parametrize("offset", [1e6, 1e7])
    def test_matches_the_centred_solve_far_from_the_origin(
        self, db, rng, offset
    ):
        """Raw normal equations lose every digit this far out; the
        moments about the first batch's means lose none."""
        spec, joined, targets = build_star(db, rng, offset=offset)
        alpha = 1e-2
        model = fit_ridge(db, spec, alpha=alpha)
        centered = joined - joined.mean(axis=0)
        expected = np.linalg.solve(
            centered.T @ centered + alpha * np.eye(joined.shape[1]),
            centered.T @ (targets - targets.mean()),
        )
        np.testing.assert_allclose(model.weights, expected, rtol=1e-9)

    def test_recovers_generating_weights(self, db, rng):
        spec, joined, targets = build_star(db, rng, n_s=2000)
        model = fit_ridge(db, spec, alpha=1e-8)
        # Noise 0.1 → weights recovered to ~1e-2.
        lstsq = np.linalg.lstsq(
            np.column_stack([joined, np.ones(len(targets))]),
            targets, rcond=None,
        )[0]
        np.testing.assert_allclose(
            model.weights, lstsq[:-1], atol=1e-6
        )

    def test_prediction_quality(self, db, rng):
        spec, joined, targets = build_star(db, rng, n_s=1500)
        model = fit_ridge(db, spec, alpha=1e-6)
        predictions = model.predict(joined)
        residual = np.mean((predictions - targets) ** 2)
        assert residual < 0.05  # noise floor is 0.01

    def test_block_size_invariance(self, db, rng):
        spec, _, _ = build_star(db, rng)
        a = fit_ridge(db, spec, alpha=1e-3, block_pages=1)
        b = fit_ridge(db, spec, alpha=1e-3, block_pages=64)
        np.testing.assert_allclose(a.weights, b.weights, rtol=1e-10)

    def test_requires_target(self, db, rng):
        from repro.join.spec import JoinSpec
        from tests.conftest import make_binary_relations

        spec = make_binary_relations(db, rng, with_target=False,
                                     fact="S2", dim="R2")
        with pytest.raises(ModelError, match="TARGET"):
            fit_ridge(db, spec)

    def test_negative_alpha_rejected(self, db, rng):
        spec, _, _ = build_star(db, rng)
        with pytest.raises(ModelError):
            fit_ridge(db, spec, alpha=-1.0)
