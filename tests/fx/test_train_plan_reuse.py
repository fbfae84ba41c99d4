"""Train-time plan reuse is a pure refactor: outputs pin to the seed.

The seed factorized each join block privately — dimension blocks held
the *full* page block (binary: the BNL outer block, multi-way: the
whole relation) and codes pointed into it.  The execution-core routing
keeps dimension blocks at the plan's *distinct referenced* RIDs with
group indexes bridged from the plan.  These tests reconstruct the seed
representation from the same join blocks and assert the refactor
changed nothing:

* every batch densifies to bit-identical wide rows;
* F-NN training (forward, backward, full fits) is bit-identical;
* the GMM E-step is bit-identical; full GMM fits agree to within a few
  ULPs (the M-step's BLAS contractions now run over ``m`` distinct
  rows instead of the padded block, which only re-brackets float
  sums of the very same terms).
"""

import warnings

import numpy as np
import pytest

from repro.core.training import train
from repro.gmm.base import EMConfig, run_em
from repro.gmm.engines import FactorizedEMEngine
from repro.gmm.init import initial_params
from repro.gmm.model import ComponentPrecisions
from repro.join.batches import Batch
from repro.join.bnl import iter_join_blocks
from repro.join.factorized import FactorizedJoin
from repro.linalg.design import FactorizedDesign
from repro.linalg.groupsum import GroupIndex, codes_for_keys
from repro.nn.base import NNConfig, run_training
from repro.nn.engines import FactorizedNNEngine
from repro.nn.network import build_model


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


class SeedStyleFactorizedJoin:
    """The pre-refactor access path, reconstructed as the oracle.

    Identical page schedule and join blocks; only the *batch
    representation* differs: dimension blocks hold every row of the
    page block and the group codes are computed privately with
    ``codes_for_keys`` — exactly what ``join/factorized.py`` did
    before training was routed through ``fx.DedupPlan``.
    """

    def __init__(self, db, spec, *, block_pages=2):
        self.resolved = spec.resolve(db)
        self.block_pages = block_pages

    @property
    def num_rows(self):
        return self.resolved.num_rows

    @property
    def has_target(self):
        return self.resolved.has_target

    def batches(self, epoch=0):
        fact = self.resolved.fact
        for block in iter_join_blocks(
            self.resolved, block_pages=self.block_pages
        ):
            groups = [
                GroupIndex(codes_for_keys(fk, keys), feats.shape[0])
                for fk, keys, feats in zip(
                    block.fks, block.dim_keys, block.dim_features
                )
            ]
            design = FactorizedDesign(
                fact.project_features(block.fact_rows),
                list(block.dim_features),
                groups,
            )
            sids = fact.project_keys(block.fact_rows)
            targets = (
                fact.project_targets(block.fact_rows)
                if fact.schema.target_column is not None
                else None
            )
            yield Batch(sids, design, targets)


def access_pair(db, spec, block_pages=2):
    return (
        FactorizedJoin(db, spec, block_pages=block_pages),
        SeedStyleFactorizedJoin(db, spec, block_pages=block_pages),
    )


def weights_bit_equal(a, b):
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.bias, lb.bias)


class TestRepresentationExactness:
    @pytest.mark.parametrize("star_fixture", ["binary_star",
                                              "multiway_star"])
    def test_batches_densify_bit_identical(self, request, star_fixture):
        star = request.getfixturevalue(star_fixture)
        db = request.getfixturevalue("db")
        new, seed = access_pair(db, star.spec)
        for batch_new, batch_seed in zip(new.batches(), seed.batches()):
            np.testing.assert_array_equal(
                batch_new.design.densify(),
                batch_seed.design.densify(),
            )
            np.testing.assert_array_equal(
                batch_new.targets, batch_seed.targets
            )

    def test_dimension_blocks_shrink_to_referenced_rids(
        self, db, multiway_star
    ):
        """The refactor's one representational change: blocks hold only
        the RIDs the batch references, like a serving partial cache."""
        new, seed = access_pair(db, multiway_star.spec)
        for batch_new, batch_seed in zip(new.batches(), seed.batches()):
            for i, dim in enumerate(batch_new.plan.dims):
                assert (
                    batch_new.design.dim_blocks[i].shape[0] == dim.m
                )
                assert (
                    batch_seed.design.dim_blocks[i].shape[0] >= dim.m
                )


class TestNNBitExactness:
    def test_first_preactivations_bit_identical(self, db, binary_star):
        config = NNConfig(hidden_sizes=(7,), seed=3)
        new, seed = access_pair(db, binary_star.spec)
        model = build_model(8, config)
        engine_new = FactorizedNNEngine(new, model)
        engine_seed = FactorizedNNEngine(seed, model)
        for batch_new, batch_seed in zip(new.batches(), seed.batches()):
            np.testing.assert_array_equal(
                engine_new.first_preactivations(
                    batch_new, engine_new.dimension_partials(batch_new)
                ),
                engine_seed.first_preactivations(
                    batch_seed, engine_seed.dimension_partials(batch_seed)
                ),
            )

    @pytest.mark.parametrize("batch_mode", ["full", "per-batch"])
    def test_fit_bit_identical(self, db, binary_star, batch_mode):
        config = NNConfig(
            hidden_sizes=(6,), epochs=3, learning_rate=0.1,
            batch_mode=batch_mode, seed=6,
        )
        _, seed = access_pair(db, binary_star.spec)
        fit_new = train(db, binary_star.spec, "nn", "F", config, block_pages=2)
        fit_seed = run_training(
            FactorizedNNEngine(seed, build_model(8, config)),
            config, algorithm="F-NN",
        )
        assert fit_new.loss_history == fit_seed.loss_history
        weights_bit_equal(fit_new.model, fit_seed.model)

    def test_multiway_fit_bit_identical(self, db, multiway_star):
        config = NNConfig(
            hidden_sizes=(5,), epochs=2, learning_rate=0.05, seed=2,
        )
        _, seed = access_pair(db, multiway_star.spec, block_pages=3)
        n_features = seed.resolved.total_features
        fit_new = train(
            db, multiway_star.spec, "nn", "F", config, block_pages=3
        )
        fit_seed = run_training(
            FactorizedNNEngine(seed, build_model(n_features, config)),
            config, algorithm="F-NN",
        )
        weights_bit_equal(fit_new.model, fit_seed.model)


class TestGMMExactness:
    def test_estep_bit_identical(self, db, binary_star):
        new, seed = access_pair(db, binary_star.spec)
        engine_new = FactorizedEMEngine(new, 8)
        engine_seed = FactorizedEMEngine(seed, 8)
        params = initial_params(engine_new.init_sample(300), 3, seed=0)
        precisions = ComponentPrecisions(params.covariances, 1e-6)
        for batch_new, batch_seed in zip(new.batches(), seed.batches()):
            gamma_new, ll_new = engine_new.estep_batch(
                batch_new, params, precisions
            )
            gamma_seed, ll_seed = engine_seed.estep_batch(
                batch_seed, params, precisions
            )
            np.testing.assert_array_equal(gamma_new, gamma_seed)
            np.testing.assert_array_equal(ll_new, ll_seed)

    @pytest.mark.parametrize("star_fixture", ["binary_star",
                                              "multiway_star"])
    def test_fit_matches_to_ulps(self, request, star_fixture):
        """Full fits re-bracket the M-step's float sums (same terms,
        zero-weight padding rows dropped) — pinned at 1e-12 relative,
        far inside the 1e-8/1e-9 the cross-strategy suite tolerates."""
        star = request.getfixturevalue(star_fixture)
        db = request.getfixturevalue("db")
        config = EMConfig(n_components=3, max_iter=3, tol=0.0, seed=2)
        _, seed = access_pair(db, star.spec)
        n_features = seed.resolved.total_features
        fit_new = train(db, star.spec, "gmm", "F", config, block_pages=2)
        fit_seed = run_em(
            FactorizedEMEngine(seed, n_features), config, algorithm="F"
        )
        np.testing.assert_allclose(
            fit_new.params.means, fit_seed.params.means,
            rtol=1e-12, atol=1e-13,
        )
        np.testing.assert_allclose(
            fit_new.params.covariances, fit_seed.params.covariances,
            rtol=1e-12, atol=1e-13,
        )
        np.testing.assert_allclose(
            fit_new.params.weights, fit_seed.params.weights, rtol=1e-12
        )
        np.testing.assert_allclose(
            fit_new.log_likelihood_history,
            fit_seed.log_likelihood_history,
            rtol=1e-12,
        )
