"""The one-pass EM driver against the three-pass reference.

:func:`repro.gmm.base.run_em` sums ``Sum_Σ`` about the *old* means in
the same join walk as the E-step and ``Sum_µ``, then corrects by
``δδᵀ``.  Algebraically that is Algorithm 1's three-pass Σ; in floating
point it differs by rounding, so the contract with the reference
(``tests/gmm/three_pass_oracle.py``) is a log-likelihood history within
``HISTORY_RTOL`` and identical hard labels, on every arm, over the
exactness grids of ``test_gmm_exactness.py``.  A start far enough from
the data to cancel the correction must take the re-walk and still
agree.
"""

import warnings

import numpy as np
import pytest

import repro.core.training as training
from repro.core.training import train
from repro.data.synthetic import DimensionSpec, StarSchemaConfig, generate_star
from repro.fx.costs import COUNT_TABLE
from repro.gmm.base import EMConfig
from repro.gmm.model import GaussianMixtureModel, GMMParams
from repro.join.reference import nested_loop_join
from tests.gmm import three_pass_oracle

HISTORY_RTOL = 1e-9

GRIDS = {
    # (star, block_pages): the binary and three-way exactness grids
    "binary": (
        StarSchemaConfig.binary(n_s=600, n_r=30, d_s=3, d_r=5, seed=13), 2,
    ),
    "multiway": (
        StarSchemaConfig(
            n_s=500, d_s=2,
            dimensions=(DimensionSpec(12, 3), DimensionSpec(8, 4)),
            seed=29,
        ),
        4,
    ),
}
EM = EMConfig(n_components=3, max_iter=4, tol=0.0, seed=2)


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def fit_both(monkeypatch, db, spec, strategy, block_pages, start=None):
    """``(one-pass fit, three-pass fit)`` of the same arm."""
    fit = train(db, spec, "gmm", strategy, EM, block_pages=block_pages,
                start=start)
    with monkeypatch.context() as patch:
        patch.setattr(training, "run_em", three_pass_oracle.run_em)
        oracle = train(db, spec, "gmm", strategy, EM,
                       block_pages=block_pages, start=start)
    return fit, oracle


def assert_matches_oracle(db, spec, fit, oracle):
    np.testing.assert_allclose(
        fit.log_likelihood_history, oracle.log_likelihood_history,
        rtol=HISTORY_RTOL,
    )
    assert fit.params.allclose(oracle.params)
    joined = nested_loop_join(db, spec).design.fact_block
    np.testing.assert_array_equal(
        GaussianMixtureModel(fit.params).predict(joined),
        GaussianMixtureModel(oracle.params).predict(joined),
    )


@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("strategy", ["M", "S", "F"])
def test_one_pass_matches_the_three_pass_oracle(
    monkeypatch, db, grid, strategy
):
    config, block_pages = GRIDS[grid]
    star = generate_star(db, config)
    fit, oracle = fit_both(monkeypatch, db, star.spec, strategy, block_pages)
    assert_matches_oracle(db, star.spec, fit, oracle)
    assert fit.extra["covariance_rewalks"] == 0
    if strategy != "M":
        # the sample pass records the index; each EM pass replays it
        replayed = fit.extra["join_index"]["passes_replayed"]
        assert replayed == EM.max_iter * COUNT_TABLE["gmm", "train"][1]
        # the oracle inherits that index from the database, so its
        # sample pass replays too
        assert oracle.extra["join_index"]["passes_replayed"] == (
            1 + 3 * EM.max_iter
        )


def test_a_cancelling_correction_rewalks_and_still_matches(monkeypatch, db):
    """Means 1e8 away from unit-spread data: ``δ²`` is all but ~1e-16 of
    the raw moment, so the first iteration re-walks ``Sum_Σ``."""
    config, block_pages = GRIDS["binary"]
    star = generate_star(db, config)
    joined = nested_loop_join(db, star.spec).design.fact_block
    k, d = EM.n_components, joined.shape[1]
    spread = np.random.default_rng(0).normal(size=(k, d))
    start = GMMParams(
        np.full(k, 1.0 / k),
        joined.mean(axis=0) + spread + 1e8,
        np.broadcast_to(1e16 * np.eye(d), (k, d, d)),
    )
    fit, oracle = fit_both(
        monkeypatch, db, star.spec, "F", block_pages, start=start
    )
    assert fit.extra["covariance_rewalks"] >= 1
    assert_matches_oracle(db, star.spec, fit, oracle)
