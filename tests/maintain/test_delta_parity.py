"""Refit-parity property suite for delta-maintained fits.

Randomized schedules of dimension updates, fact appends and dimension
appends hit a live star while a :class:`~repro.maintain.ModelMaintainer`
listens; after every flush the delta-maintained state must match a
from-scratch oracle over the post-schedule database:

* **ridge** — the rank-k deltas and fold-ins are algebraically exact,
  so the maintained statistics solve to the ``fit_ridge`` fit to float
  round-off;
* **gmm** — statistics maintained through deltas equal statistics
  rebuilt from scratch at the same frozen parameters (and solve to the
  same labels); a forced :meth:`refresh` re-anchors the parameters
  bit-exactly on the deterministic ``fit_gmm`` oracle;
* **nn** — no exact delta exists for the iterative fit, so a dimension
  update must surface as a full deterministic refit, bit-exact against
  the ``fit_nn`` oracle; fact appends fold in as one factorized SGD
  step equal (to float round-off) to the dense-backprop step;
* **both statistics kinds** — moments are kept about a centre, so a
  star far from the origin loses no digits, and a solve whose centring
  would cancel refits instead.

The exactness contract per path is tabulated in docs/maintenance.md.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.core.api import fit_gmm, fit_nn, predict_gmm
from repro.core.training import train
from repro.gmm.base import EMConfig
from repro.linalg.groupsum import codes_for_keys
from repro.linear.models import fit_ridge
from repro.maintain import (
    GMMSuffStats,
    MaintenancePolicy,
    ModelMaintainer,
)
from repro.nn.base import NNConfig
from repro.obs import Telemetry, prometheus_text

MANUAL = MaintenancePolicy(refresh="manual")


# -- schedule operations ------------------------------------------------------


def update_dimension(db, spec, rng, *, count=3, which=None):
    """Overwrite ``count`` rows of one dimension in place (keys fixed)."""
    names = [dim.relation for dim in spec.dimensions]
    name = names[which if which is not None else int(rng.integers(len(names)))]
    relation = db.relation(name)
    rows = relation.scan()
    k = min(count, rows.shape[0])
    positions = rng.choice(rows.shape[0], size=k, replace=False)
    replacement = rows[positions].copy()
    replacement[:, 1:] += rng.normal(scale=0.2, size=replacement[:, 1:].shape)
    db.update_rows(name, positions, replacement)


def append_facts(db, spec, rng, *, count=4):
    """Append fact rows (fresh keys, FKs drawn from existing rows)."""
    fact = spec.resolve(db).fact
    rows = fact.scan()
    take = rng.choice(rows.shape[0], size=count)
    new = rows[take].copy()
    key_pos = fact.schema.key_position
    new[:, key_pos] = rows[:, key_pos].max() + 1 + np.arange(count)
    for pos in fact.schema.feature_positions:
        new[:, pos] += rng.normal(scale=0.3, size=count)
    if fact.schema.target_position is not None:
        new[:, fact.schema.target_position] += rng.normal(
            scale=0.3, size=count
        )
    db.append_rows(fact.name, new)


def append_dimension(db, spec, rng, *, count=2):
    """Append fresh (not yet referenced) rows to the first dimension."""
    name = spec.dimensions[0].relation
    relation = db.relation(name)
    rows = relation.scan()
    new = rows[:count].copy()
    new[:, 0] = rows[:, 0].max() + 1 + np.arange(count)
    new[:, 1:] = rng.normal(size=new[:, 1:].shape)
    db.append_rows(name, new)


def shift_relation(db, relation, offset):
    """Move every feature (and the target) of one relation by ``offset``."""
    rows = relation.scan()
    schema = relation.schema
    columns = list(schema.feature_positions)
    if schema.target_column is not None:
        columns.append(schema.target_position)
    rows[:, columns] += offset
    db.update_rows(relation.name, np.arange(rows.shape[0]), rows)


def shift_star(db, spec, offset):
    """The same star ``offset`` away from the origin in every column."""
    resolved = spec.resolve(db)
    for relation in (resolved.fact, *(d.relation for d in resolved.dimensions)):
        shift_relation(db, relation, offset)


def materialize(db, spec):
    """The joined wide matrix over the stored fact rows, in scan order."""
    resolved = spec.resolve(db)
    fact = resolved.fact
    rows = fact.scan()
    parts = [fact.project_features(rows)]
    for dim in resolved.dimensions:
        fks = fact.project_foreign_keys(rows, dim.relation.name)
        idx = codes_for_keys(fks.astype(np.int64), dim.relation.keys())
        parts.append(dim.relation.features()[idx])
    return np.column_stack(parts)


# -- ridge: exact parity ------------------------------------------------------


class TestRidgeParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_schedule_matches_refit_oracle(
        self, db, multiway_star, seed
    ):
        spec = multiway_star.spec
        rng = np.random.default_rng(seed)
        with ModelMaintainer(
            db, "m", "linear", spec, alpha=1e-3, policy=MANUAL
        ) as maintainer:
            ops = [update_dimension, append_facts, append_dimension]
            for _ in range(6):
                ops[int(rng.integers(len(ops)))](db, spec, rng)
                maintainer.flush()
                oracle = fit_ridge(db, spec, alpha=1e-3)
                np.testing.assert_allclose(
                    maintainer.model.weights, oracle.weights,
                    rtol=1e-9, atol=1e-12,
                )
                np.testing.assert_allclose(
                    maintainer.model.intercept, oracle.intercept,
                    rtol=1e-9, atol=1e-12,
                )

    def test_a_schedule_far_from_the_origin_matches_the_refit_oracle(
        self, db, multiway_star
    ):
        """Raw normal equations cancel a million away from the origin;
        moments about the first batch's means do not."""
        spec = multiway_star.spec
        shift_star(db, spec, 1e6)
        rng = np.random.default_rng(3)
        with ModelMaintainer(
            db, "m", "linear", spec, alpha=1e-3, policy=MANUAL
        ) as maintainer:
            for op in (update_dimension, append_facts, update_dimension):
                op(db, spec, rng)
                maintainer.flush()
                oracle = fit_ridge(db, spec, alpha=1e-3)
                np.testing.assert_allclose(
                    maintainer.model.weights, oracle.weights,
                    rtol=1e-9, atol=1e-12,
                )
                np.testing.assert_allclose(
                    maintainer.model.intercept, oracle.intercept,
                    rtol=1e-9, atol=1e-12,
                )

    def test_append_referencing_new_dimension_rows(self, db, binary_target_spec):
        spec = binary_target_spec
        rng = np.random.default_rng(7)
        with ModelMaintainer(
            db, "m", "linear", spec, alpha=1e-2, policy=MANUAL
        ) as maintainer:
            # Grow the dimension, then append facts that reference the
            # fresh RIDs — the fold must route through the grown index
            # space, not the one the statistics were built with.
            dim = spec.dimensions[0].relation
            relation = db.relation(dim)
            rows = relation.scan()
            fresh_key = rows[:, 0].max() + 1
            new_dim = rows[:1].copy()
            new_dim[0, 0] = fresh_key
            new_dim[0, 1:] = rng.normal(size=new_dim[0, 1:].shape)
            db.append_rows(dim, new_dim)

            fact = spec.resolve(db).fact
            frows = fact.scan()
            new_fact = frows[:3].copy()
            key_pos = fact.schema.key_position
            new_fact[:, key_pos] = frows[:, key_pos].max() + 1 + np.arange(3)
            new_fact[:, fact.schema.fk_position(dim)] = fresh_key
            db.append_rows(fact.name, new_fact)

            maintainer.flush()
            oracle = fit_ridge(db, spec, alpha=1e-2)
            np.testing.assert_allclose(
                maintainer.model.weights, oracle.weights,
                rtol=1e-9, atol=1e-12,
            )

    def test_refresh_anchors_bit_exactly_on_fit_ridge(
        self, db, multiway_star
    ):
        """docs/maintenance.md's "bit-exact vs fit_ridge": the build a
        maintainer starts from, and a forced refit after deltas, solve
        the very sums ``fit_ridge`` accumulates (several batches)."""
        spec = multiway_star.spec
        rng = np.random.default_rng(4)

        def assert_anchored(model):
            oracle = fit_ridge(db, spec, alpha=1e-3, block_pages=1)
            np.testing.assert_array_equal(model.weights, oracle.weights)
            assert model.intercept == oracle.intercept

        with ModelMaintainer(
            db, "m", "linear", spec, alpha=1e-3, policy=MANUAL,
            block_pages=1,
        ) as maintainer:
            assert_anchored(maintainer.model)
            for op in (update_dimension, append_facts, append_dimension):
                op(db, spec, rng)
            maintainer.flush()
            maintainer.refresh()
            assert_anchored(maintainer.model)


# -- gmm: frozen-gamma deltas and bit-exact refit anchors ---------------------


def _gmm_config():
    return EMConfig(n_components=3, max_iter=8, seed=3)


class TestGMMParity:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_update_deltas_match_frozen_gamma_oracle(
        self, db, multiway_star, seed
    ):
        """Maintained statistics == frozen build-γ times the updated
        join, the second moments centred on the build's means — the
        delta path exactly reproduces what rebuilding the sums with the
        retained responsibilities would."""
        spec = multiway_star.spec
        config = _gmm_config()
        fit = fit_gmm(db, spec, algorithm="factorized", config=config)
        rng = np.random.default_rng(seed)
        with ModelMaintainer(
            db, "m", "gmm", spec, fit, em_config=config, policy=MANUAL
        ) as maintainer:
            gamma = fit.model.responsibilities(materialize(db, spec))
            for step in range(4):
                update_dimension(db, spec, rng, which=step % 2)
            maintainer.flush()

            dense = materialize(db, spec)
            np.testing.assert_allclose(
                maintainer.stats.counts, gamma.sum(axis=0), rtol=1e-9
            )
            np.testing.assert_allclose(
                maintainer.stats.comp_sum, gamma.T @ dense,
                rtol=1e-8, atol=1e-10,
            )
            # the second moments about the build's means
            centred = dense[:, None, :] - fit.model.params.means
            np.testing.assert_allclose(
                maintainer.stats.comp_outer,
                np.einsum("nk,nkd,nke->kde", gamma, centred, centred),
                rtol=1e-7, atol=1e-9,
            )

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_a_build_solves_to_one_em_iteration(
        self, db, multiway_star, offset
    ):
        """Straight after a build the statistics are one training walk's
        sums, so their solve is one ``run_em`` iteration, bit for bit."""
        spec = multiway_star.spec
        shift_star(db, spec, offset)
        config = _gmm_config()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params = fit_gmm(
                db, spec, algorithm="factorized", config=config
            ).model.params
            one = train(
                db, spec, "gmm", "F", replace(config, max_iter=1),
                start=params,
            ).params
        solved = GMMSuffStats.build(db, spec, params, config=config).solve()
        np.testing.assert_array_equal(solved.weights, one.weights)
        np.testing.assert_array_equal(solved.means, one.means)
        np.testing.assert_array_equal(solved.covariances, one.covariances)

    def test_append_only_schedule_matches_scratch_build(
        self, db, multiway_star
    ):
        """With no updates, frozen γ equals fresh γ — so the maintained
        statistics must equal a from-scratch build at the same
        parameters over the grown star, and solve to the same labels."""
        spec = multiway_star.spec
        config = _gmm_config()
        fit = fit_gmm(db, spec, algorithm="factorized", config=config)
        rng = np.random.default_rng(11)
        with ModelMaintainer(
            db, "m", "gmm", spec, fit, em_config=config, policy=MANUAL
        ) as maintainer:
            append_dimension(db, spec, rng)
            append_facts(db, spec, rng, count=5)
            maintainer.flush()

            oracle = GMMSuffStats.build(
                db, spec, fit.model.params, config=config
            )
            np.testing.assert_allclose(
                maintainer.stats.counts, oracle.counts, rtol=1e-9
            )
            np.testing.assert_allclose(
                maintainer.stats.comp_sum, oracle.comp_sum,
                rtol=1e-8, atol=1e-10,
            )
            maintained = maintainer.stats.solve()
            scratch = oracle.solve()
            dense = materialize(db, spec)
            from repro.gmm.model import GaussianMixtureModel

            labels_maintained = GaussianMixtureModel(
                maintained, reg_covar=config.reg_covar
            ).predict(dense)
            labels_scratch = GaussianMixtureModel(
                scratch, reg_covar=config.reg_covar
            ).predict(dense)
            assert np.array_equal(labels_maintained, labels_scratch)

    def test_refresh_anchors_bit_exactly_on_refit_oracle(
        self, db, multiway_star
    ):
        spec = multiway_star.spec
        config = _gmm_config()
        fit = fit_gmm(db, spec, algorithm="factorized", config=config)
        rng = np.random.default_rng(5)
        with ModelMaintainer(
            db, "m", "gmm", spec, fit, em_config=config, policy=MANUAL
        ) as maintainer:
            for _ in range(3):
                update_dimension(db, spec, rng)
            maintainer.refresh()

            oracle = fit_gmm(
                db, spec, algorithm="factorized", config=config
            )
            assert np.array_equal(
                maintainer.model.params.weights, oracle.model.params.weights
            )
            assert np.array_equal(
                maintainer.model.params.means, oracle.model.params.means
            )
            assert np.array_equal(
                maintainer.model.params.covariances,
                oracle.model.params.covariances,
            )
            # Served labels are therefore bit-exact too.
            assert np.array_equal(
                predict_gmm(db, spec, maintainer.model),
                predict_gmm(db, spec, oracle.model),
            )


# -- both: a solve that cancels falls back to the refit -----------------------


@pytest.mark.parametrize("kind", ["linear", "gmm"])
def test_rows_moved_far_from_the_centre_force_a_refit(db, multiway_star, kind):
    """A dimension moved a million away leaves the statistics' centring
    correction all cancellation: the flush refits instead of solving,
    counts it, and serves exactly what a from-scratch fit does."""
    spec = multiway_star.spec
    config = _gmm_config()
    telemetry = Telemetry(enabled=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = None
        if kind == "gmm":
            fit = fit_gmm(db, spec, algorithm="factorized", config=config)
        with ModelMaintainer(
            db, "m", kind, spec, fit, em_config=config, alpha=1e-3,
            policy=MANUAL, telemetry=telemetry,
        ) as maintainer:
            dim = spec.dimensions[0].relation
            shift_relation(db, db.relation(dim), 1e6)
            maintainer.flush()
            text = prometheus_text(telemetry.registry.snapshot())
            assert 'repro_maintain_refits_total{model="m"} 1' in text
            if kind == "linear":
                oracle = fit_ridge(db, spec, alpha=1e-3)
                np.testing.assert_array_equal(
                    maintainer.model.weights, oracle.weights
                )
            else:
                oracle = fit_gmm(
                    db, spec, algorithm="factorized", config=config
                ).model
                np.testing.assert_array_equal(
                    maintainer.model.params.covariances,
                    oracle.params.covariances,
                )


# -- nn: deterministic refits and one-step fold-ins ---------------------------


def _nn_config():
    return NNConfig(hidden_sizes=(8,), epochs=2, seed=9)


class TestNNParity:
    def test_dimension_update_forces_bit_exact_refit(
        self, db, multiway_star
    ):
        spec = multiway_star.spec
        config = _nn_config()
        fit = fit_nn(db, spec, algorithm="factorized", config=config)
        rng = np.random.default_rng(2)
        with ModelMaintainer(
            db, "m", "nn", spec, fit, nn_config=config, policy=MANUAL
        ) as maintainer:
            update_dimension(db, spec, rng)
            maintainer.flush()

            oracle = fit_nn(db, spec, algorithm="factorized", config=config)
            for ours, theirs in zip(
                maintainer.model.layers, oracle.model.layers
            ):
                assert np.array_equal(ours.weights, theirs.weights)
                assert np.array_equal(ours.bias, theirs.bias)

    def test_fact_append_folds_in_one_dense_equivalent_sgd_step(
        self, db, multiway_star
    ):
        spec = multiway_star.spec
        config = _nn_config()
        fit = fit_nn(db, spec, algorithm="factorized", config=config)
        rng = np.random.default_rng(4)
        with ModelMaintainer(
            db, "m", "nn", spec, fit, nn_config=config, policy=MANUAL
        ) as maintainer:
            before = maintainer.model.copy()
            n_before = spec.resolve(db).fact.scan().shape[0]
            append_facts(db, spec, rng, count=6)
            maintainer.flush()

            # Dense oracle: materialize exactly the appended rows and
            # take the same normalized mini-batch step via standard
            # backprop — the factorized fold must agree to round-off.
            dense = materialize(db, spec)[n_before:]
            fact = spec.resolve(db).fact
            targets = fact.project_targets(fact.scan())[n_before:]
            oracle = before.copy()
            _, grads = oracle.dense_gradients(dense, targets, 6)
            oracle.apply_grads(grads, config.learning_rate)
            for ours, theirs in zip(maintainer.model.layers, oracle.layers):
                np.testing.assert_allclose(
                    ours.weights, theirs.weights, rtol=1e-9, atol=1e-12
                )
