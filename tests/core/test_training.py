"""The one training path, walked arm by arm.

Every cell of the paper's 2 models × 3 strategies goes through
:func:`repro.core.training.train`; these tests hold the six cells (over
a binary and a 3-way star) to one contract — label, ``fit.extra`` keys,
I/O and wall-time bookkeeping, and M- = S- = F- models — and pin the
two failure paths: a fit that must be refused — a bad config value
included — moves no page, and a materialized fit that fails leaves no
``_T_*`` relation behind.
"""

import math
import warnings

import numpy as np
import pytest

from repro.core.api import fit_gmm, fit_nn
from repro.core.training import ACCESS, KINDS, train
from repro.data.synthetic import (
    DimensionSpec,
    StarSchemaConfig,
    generate_star,
)
from repro.errors import ModelError
from repro.gmm.base import EMConfig
from repro.gmm.init import initial_params
from repro.nn.base import NNConfig
from repro.nn.network import build_model

# Full-batch for the network: only then do all three arms take the
# same steps (per-batch M-NN batches by pages of T).
CONFIGS = {
    "gmm": EMConfig(n_components=3, max_iter=3, tol=0.0, seed=2),
    "nn": NNConfig(
        hidden_sizes=(6,), epochs=3, learning_rate=0.1,
        batch_mode="full", seed=6,
    ),
}
SERIES = {"gmm": "iteration_seconds", "nn": "epoch_seconds"}
KIND_KEYS = {"gmm": {"covariance_rewalks"}, "nn": set()}
SHARED_KEYS = {
    "dedup_batches", "dedup_rows", "dedup_references", "dedup_distinct",
    "dedup_ratio", "dedup_ratio_series",
}
ARM_KEYS = {
    "materialized": {"materialize_seconds", "table_pages"},
    "streaming": {"join_index"},
    "factorized": {"join_index"},
}


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def make_star(db, shape, with_target=True):
    if shape == "binary":
        config = StarSchemaConfig.binary(
            n_s=500, n_r=25, d_s=3, d_r=5, with_target=with_target, seed=7
        )
    else:
        config = StarSchemaConfig(
            n_s=400, d_s=3,
            dimensions=(DimensionSpec(15, 4), DimensionSpec(9, 2)),
            with_target=with_target, seed=11,
        )
    return generate_star(db, config)


def assert_same_model(kind, fit, reference):
    """The tolerances of tests/gmm and tests/nn's exactness suites."""
    if kind == "gmm":
        assert fit.params.allclose(reference.params)
        np.testing.assert_allclose(
            fit.log_likelihood_history,
            reference.log_likelihood_history, rtol=1e-9,
        )
        return
    np.testing.assert_allclose(
        fit.loss_history, reference.loss_history, rtol=1e-8
    )
    for ours, theirs in zip(fit.model.layers, reference.model.layers):
        np.testing.assert_allclose(
            ours.weights, theirs.weights, rtol=1e-8, atol=1e-12
        )
        np.testing.assert_allclose(
            ours.bias, theirs.bias, rtol=1e-8, atol=1e-12
        )


@pytest.mark.parametrize("shape", ["binary", "3way"])
@pytest.mark.parametrize("strategy", list(ACCESS))
@pytest.mark.parametrize("kind", list(KINDS))
def test_every_arm_keeps_one_contract(db, kind, strategy, shape):
    star = make_star(db, shape)
    config = CONFIGS[kind]
    relations = db.relation_names
    fit = train(db, star.spec, kind, strategy, config, block_pages=2)

    assert fit.algorithm == f"{strategy[0].upper()}-{kind.upper()}"
    assert set(fit.extra) == (
        SHARED_KEYS | {SERIES[kind]} | KIND_KEYS[kind] | ARM_KEYS[strategy]
    )
    steps = config.max_iter if kind == "gmm" else config.epochs
    assert len(fit.extra[SERIES[kind]]) == steps
    assert len(fit.extra["dedup_ratio_series"]) == steps
    assert fit.io.pages_read > 0
    assert fit.wall_time_seconds >= sum(fit.extra[SERIES[kind]])
    if strategy == "materialized":
        assert fit.wall_time_seconds >= fit.extra["materialize_seconds"] > 0
        assert fit.io.pages_written >= fit.extra["table_pages"] > 0
        assert fit.extra["dedup_batches"] == 0
    else:
        assert fit.io.pages_written == 0
        assert fit.extra["join_index"]["passes_replayed"] > 0
        assert fit.extra["dedup_ratio"] > 1.0
    assert db.relation_names == relations

    reference = train(db, star.spec, kind, "streaming", config, block_pages=2)
    assert_same_model(kind, fit, reference)


def test_auto_records_what_it_chose(db):
    star = make_star(db, "binary")
    fit = train(db, star.spec, "gmm", "auto", CONFIGS["gmm"])
    assert fit.extra["auto"]["chosen"] in ACCESS
    assert fit.algorithm[0] == fit.extra["auto"]["chosen"][0].upper()


def test_keep_table_keeps_the_named_table(db):
    star = make_star(db, "binary")
    train(
        db, star.spec, "gmm", "M", CONFIGS["gmm"],
        table_name="T_kept", keep_table=True,
    )
    assert "T_kept" in db
    assert db["T_kept"].nrows == 500


def _refusals():
    wide = np.random.default_rng(0).normal(size=(50, 9))
    yield "nn", "M", True, None, "TARGET"
    yield "nn", "S", True, None, "TARGET"
    yield "nn", "F", True, None, "TARGET"
    yield "gmm", "M", False, initial_params(wide, 3), "features"
    yield "nn", "M", False, build_model(9, CONFIGS["nn"]), "features"
    yield "gmm", "sideways", False, None, "unknown algorithm"
    yield "svm", "M", False, None, "unknown model kind"


@pytest.mark.parametrize(
    "kind, strategy, drop_target, start, message", list(_refusals())
)
def test_refused_before_a_page_moves(
    db, kind, strategy, drop_target, start, message
):
    """Parent 530c1f4: M-NN without a TARGET read 1,402 pages and wrote
    4,167 at the ``train_rr100_wide`` shape before raising."""
    star = make_star(db, "binary", with_target=not drop_target)
    relations = db.relation_names
    before = db.stats.snapshot()
    with pytest.raises(ModelError, match=message):
        train(
            db, star.spec, kind, strategy, CONFIGS.get(kind), start=start
        )
    moved = db.stats.snapshot() - before
    assert (moved.pages_read, moved.pages_written) == (0, 0)
    assert db.relation_names == relations


BAD_CONFIGS = {
    "activation=bogus": lambda **fit: fit_nn(**fit, activation="bogus"),
    "learning_rate=nan": lambda **fit: fit_nn(**fit, learning_rate=math.nan),
    "learning_rate=inf": lambda **fit: fit_nn(**fit, learning_rate=math.inf),
    "reg_covar=-1": lambda **fit: fit_gmm(**fit, reg_covar=-1.0),
    "reg_covar=nan": lambda **fit: fit_gmm(**fit, reg_covar=math.nan),
    "tol=nan": lambda **fit: fit_gmm(**fit, tol=math.nan),
    "init_sample_size=0": lambda **fit: fit_gmm(
        **fit, config=EMConfig(init_sample_size=0)
    ),
}


@pytest.mark.parametrize("strategy", list(ACCESS))
@pytest.mark.parametrize("bad", list(BAD_CONFIGS))
def test_bad_config_refused_before_a_page_moves(db, bad, strategy):
    """Parent 66c8b07, on a 2,000-row binary star under M-:
    ``activation="bogus"`` and ``init_sample_size=0`` read 13 pages and
    wrote all 20 of ``T`` before raising, ``reg_covar=-1`` read 53; a
    NaN ``learning_rate`` trained to NaN weights and a NaN ``tol`` ran
    to ``max_iter``, both without an error or a warning."""
    star = make_star(db, "binary")
    relations = db.relation_names
    before = db.stats.snapshot()
    with pytest.raises(ModelError):
        BAD_CONFIGS[bad](db=db, spec=star.spec, algorithm=strategy)
    assert db.stats.snapshot() == before
    assert db.relation_names == relations
    assert not [n for n in db.relation_names if n.startswith("_T_")]


@pytest.mark.parametrize("kind", list(KINDS))
def test_failing_materialized_fit_leaves_no_table(db, kind):
    """A dangling FK in the last fact block of a 3-way star fails the
    join part-way, after ``T`` was created and partly written."""
    star = make_star(db, "3way")
    fact = db[star.spec.fact]
    last = fact.scan()[-1].copy()
    last[fact.schema.fk_position("R2")] = 999
    db.update_rows(star.spec.fact, [fact.nrows - 1], last)
    relations = db.relation_names
    with pytest.raises(ModelError):
        train(db, star.spec, kind, "M", CONFIGS[kind], block_pages=2)
    assert db.relation_names == relations
