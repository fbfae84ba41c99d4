"""An EM step is the sum of its row tiles, all components at once.

The engine walks a batch — dimensions kept or inlined — through
``repro.gmm.model.tiles`` and hands each tile to the stacked kernels of
``repro.linalg``: the driver's step
(``step_batch``) in one walk whose E-step tile feeds both M-step sums,
the three traced kernels each in their own.  The references here are
the per-component, whole-batch passes the engines made before — ``for j
in range(K)`` around one quadratic form, one weighted sum and one
weighted outer product — kept test-local.  Tiling and stacking only
reorder float sums, so everything agrees to a few ulps.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

import repro
from repro.core.training import train
from repro.gmm.base import EMConfig
from repro.gmm import model
from repro.gmm.engines import FactorizedEMEngine
from repro.gmm.model import (
    ComponentPrecisions,
    GMMParams,
    log_gaussian_from_quadform,
    log_responsibilities,
    mu_sums,
    posteriors,
    sigma_sums,
)
from repro.join.batches import Batch
from repro.linalg.blocks import TILE_BYTES
from repro.linalg.design import FactorizedDesign
from repro.linalg.groupsum import GroupIndex
from repro.linalg.quadform import (
    factorized_quadratic_form,
    quadform_tables,
    stacked_quadratic_form,
)

D_S = 3
SHAPES = {
    "binary": ((40, 4),),
    "3-way star": ((40, 4), (6, 2)),
}
SMALL_TILE_BYTES = 1 << 13
LENGTHS = {
    "1": lambda tile: 1,
    "tile-1": lambda tile: tile - 1,
    "tile": lambda tile: tile,
    "tile+1": lambda tile: tile + 1,
    "3*tile+7": lambda tile: 3 * tile + 7,
    "9*tile+5": lambda tile: 9 * tile + 5,     # several Sum_µ tiles too
}
CODES = {
    "random RIDs": lambda rng, n, m: rng.integers(0, m, size=n),
    "a group is empty": lambda rng, n, m: rng.integers(1, m, size=n),
    "one shared RID": lambda rng, n, m: np.full(n, m // 2),
}


@pytest.fixture
def small_tiles(monkeypatch):
    """Tiles of a few dozen rows, so short batches span many."""
    monkeypatch.setattr("repro.gmm.model.TILE_BYTES", SMALL_TILE_BYTES)


def star_batch(n, dims, seed, codes=CODES["random RIDs"], order="F"):
    """The same ``n`` joined rows as a factorized batch and as one with
    every dimension inlined."""
    rng = np.random.default_rng(seed)
    design = FactorizedDesign(
        np.asarray(rng.normal(size=(n, D_S)) + 2.0, order=order),
        [rng.normal(size=shape) - 1.0 for shape in dims],
        [GroupIndex(codes(rng, n, m), m) for m, _ in dims],
    )
    sids = np.arange(n)
    return (
        Batch(sids, design),
        Batch(sids, FactorizedDesign(design.densify(), [], [])),
    )


def mixture(k, d, seed):
    rng = np.random.default_rng(seed)
    roots = rng.normal(size=(k, d, d))
    params = GMMParams(
        rng.dirichlet(np.ones(k)),
        rng.normal(size=(k, d)),
        roots @ roots.transpose(0, 2, 1) + d * np.eye(d),
    )
    return params, ComponentPrecisions(params.covariances, 1e-6)


# -- the per-component, single-pass references --------------------------------


def reference_quadform(design, mean, matrix):
    """Eq. 19 one component at a time (the pre-stacking kernel)."""
    layout = design.layout
    blocks = layout.split_matrix(matrix)
    parts = layout.split_vector(mean)
    fact = design.fact_block - parts[0]
    dims = [b - parts[i + 1] for i, b in enumerate(design.dim_blocks)]
    q = design.num_dimensions
    total = np.einsum("ni,ij,nj->n", fact, blocks[0][0], fact)
    for j in range(1, q + 1):
        group, pd_j = design.groups[j - 1], dims[j - 1]
        both = pd_j @ blocks[0][j].T + pd_j @ blocks[j][0]
        total += np.einsum("ns,ns->n", fact, group.gather(both))
        total += group.gather(
            np.einsum("mi,ij,mj->m", pd_j, blocks[j][j], pd_j)
        )
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            if i != j:
                total += np.einsum(
                    "nd,nd->n",
                    design.groups[i - 1].gather(dims[i - 1] @ blocks[i][j]),
                    design.groups[j - 1].gather(dims[j - 1]),
                )
    return total


def reference_sum(design, weights):
    """Eq. 22 one component at a time."""
    parts = [weights @ design.fact_block]
    for block, group in zip(design.dim_blocks, design.groups):
        parts.append(group.sum_weights(weights) @ block)
    return np.concatenate(parts)


def reference_outer(design, mean, weights):
    """Eq. 23–24 one component at a time."""
    layout = design.layout
    parts = layout.split_vector(mean)
    fact = design.fact_block - parts[0]
    dims = [b - parts[i + 1] for i, b in enumerate(design.dim_blocks)]
    nb = design.num_dimensions + 1
    blocks = [[None] * nb for _ in range(nb)]
    blocks[0][0] = fact.T @ (weights[:, None] * fact)
    for j in range(1, nb):
        group, pd_j = design.groups[j - 1], dims[j - 1]
        mass = group.sum_weights(weights)
        cross = group.sum_rows(fact, weights).T @ pd_j
        blocks[0][j], blocks[j][0] = cross, cross.T
        blocks[j][j] = pd_j.T @ (mass[:, None] * pd_j)
    for i in range(1, nb):
        gathered = design.groups[i - 1].gather(dims[i - 1])
        for j in range(i + 1, nb):
            block = design.groups[j - 1].sum_rows(gathered, weights).T @ (
                dims[j - 1]
            )
            blocks[i][j], blocks[j][i] = block, block.T
    return layout.assemble_matrix(blocks)


def reference_step(
    batch, params, precisions, quadform, weighted_sum, outer, centre=None
):
    """One batch's E-step and both M-step sums, ``for j in range(K)``;
    ``Sum_Σ`` about ``centre``, by default the new means."""
    k, d = params.means.shape
    log_gauss = np.empty((batch.n, k))
    for j in range(k):
        log_gauss[:, j] = log_gaussian_from_quadform(
            quadform(params.means[j], precisions.precisions[j]),
            precisions.log_dets[j], d,
        )
    gamma, log_likelihoods = log_responsibilities(log_gauss, params.weights)
    mu = np.stack([weighted_sum(gamma[:, j]) for j in range(k)])
    means = mu / gamma.sum(axis=0)[:, None]
    centre = means if centre is None else centre
    sigma = np.stack([outer(centre[j], gamma[:, j]) for j in range(k)])
    return gamma, log_likelihoods, mu, means, sigma


def factorized_reference(batch, params, precisions, centre=None):
    design = batch.design
    return reference_step(
        batch, params, precisions,
        lambda mean, matrix: reference_quadform(design, mean, matrix),
        lambda weights: reference_sum(design, weights),
        lambda mean, weights: reference_outer(design, mean, weights),
        centre,
    )


def dense_reference(batch, params, precisions, centre=None):
    data = batch.design.fact_block

    def quadform(mean, matrix):
        centered = data - mean
        return np.einsum("ni,ij,nj->n", centered, matrix, centered)

    def outer(mean, weights):
        centered = data - mean
        return centered.T @ (weights[:, None] * centered)

    return reference_step(
        batch, params, precisions, quadform, lambda w: w @ data, outer, centre
    )


def engine_step(engine, batch, params, precisions, means):
    gamma, log_likelihoods = engine.estep_batch(batch, params, precisions)
    return (
        gamma, log_likelihoods,
        engine.mu_accumulate_batch(batch, gamma),
        engine.sigma_accumulate_batch(batch, gamma, means),
    )


def assert_close(got, want, rtol):
    np.testing.assert_allclose(
        got, want, rtol=rtol, atol=rtol * np.abs(want).max()
    )


def assert_step_matches(got, want, rtol=1e-10):
    gamma, log_likelihoods, mu, sigma = got
    ref_gamma, ref_ll, ref_mu, _, ref_sigma = want
    assert gamma.shape == ref_gamma.shape
    np.testing.assert_allclose(gamma, ref_gamma, rtol=0, atol=1e-12)
    assert_close(log_likelihoods, ref_ll, rtol)
    assert_close(mu, ref_mu, rtol)
    assert_close(sigma, ref_sigma, rtol)
    assert_close(sigma, sigma.transpose(0, 2, 1), 1e-12)


@pytest.mark.usefixtures("small_tiles")
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("dims", SHAPES.values(), ids=SHAPES.keys())
@pytest.mark.parametrize("length", LENGTHS.values(), ids=LENGTHS.keys())
@pytest.mark.parametrize("codes", CODES.values(), ids=CODES.keys())
class TestTilesAddUpToTheSinglePass:
    @staticmethod
    def _setup(length, dims, k, codes):
        d = D_S + sum(width for _, width in dims)
        tile = SMALL_TILE_BYTES // (8 * k * (1 + d - min(w for _, w in dims)))
        n = length(tile)
        fact, dense = star_batch(n, dims, seed=n + k, codes=codes)
        assert fact.design.tile_width * k * tile * 8 <= SMALL_TILE_BYTES
        return fact, dense, *mixture(k, d, seed=k)

    def test_factorized_engine(self, codes, length, dims, k):
        fact, dense, params, precisions = self._setup(length, dims, k, codes)
        want = factorized_reference(fact, params, precisions)
        got = engine_step(
            FactorizedEMEngine(None, params.n_features),
            fact, params, precisions, want[3],
        )
        assert_step_matches(got, want)
        # and the same rows inlined, at the M = S = F bound
        other = engine_step(
            FactorizedEMEngine(None, params.n_features),
            dense, params, precisions, want[3],
        )
        for mine, theirs in zip(got, other):
            assert_close(mine, theirs, 1e-9)

    def test_dense_engine(self, codes, length, dims, k):
        _, dense, params, precisions = self._setup(length, dims, k, codes)
        want = dense_reference(dense, params, precisions)
        got = engine_step(
            FactorizedEMEngine(None, params.n_features),
            dense, params, precisions, want[3],
        )
        assert_step_matches(got, want)

    @pytest.mark.parametrize("shifted", [False, True], ids=["means", "shifted"])
    def test_one_walk_step(self, monkeypatch, codes, length, dims, k, shifted):
        """``step_batch`` about ``params.means`` (the walk) and about a
        shifted centre (the re-walk), on q = 0 and on the star."""
        fact, dense, params, precisions = self._setup(length, dims, k, codes)
        centre = params.means + 0.75 * shifted
        for batch, reference in (
            (fact, factorized_reference), (dense, dense_reference),
        ):
            design = batch.design
            gamma, log_likelihoods, mu, _, sigma = reference(
                batch, params, precisions, centre
            )
            with monkeypatch.context() as patch:
                walked = spy_on_the_walk(patch)
                mass, total, got_mu, got_sigma = FactorizedEMEngine(
                    None, params.n_features
                ).step_batch(batch, params, precisions, centre)
            assert_close(mass, gamma.sum(axis=0), 1e-10)
            assert_close(total, log_likelihoods.sum(), 1e-10)
            assert_close(got_mu, mu, 1e-10)
            assert_close(got_sigma, sigma, 1e-10)
            # one tile walk, in dimension 1's sort order (storage order
            # for q = 0), scoring each row with posteriors' very bits
            order = design.groups[0].order if design.groups else None
            at = np.concatenate([tile[1] for tile in walked])
            np.testing.assert_array_equal(
                at, np.arange(design.n) if order is None else order
            )
            walk_gamma = np.empty((design.n, k))
            walk_ll = np.empty(design.n)
            for _, rows, block, tile_ll, _, _ in walked:
                walk_gamma[rows] = block.T
                walk_ll[rows] = tile_ll
            want_gamma, want_ll = posteriors(design, params, precisions)
            np.testing.assert_array_equal(walk_gamma, want_gamma)
            np.testing.assert_array_equal(walk_ll, want_ll)


def spy_on_the_walk(patch) -> list:
    """Copies of every tile ``gmm.model._log_density_tiles`` yields."""
    walked, original = [], model._log_density_tiles

    def spy(*args, **kwargs):
        for tile in original(*args, **kwargs):
            walked.append([
                np.arange(part.start, part.stop) if isinstance(part, slice)
                else None if part is None else np.array(part)
                for part in tile
            ])
            yield tile

    patch.setattr(model, "_log_density_tiles", spy)
    return walked


@pytest.mark.usefixtures("small_tiles")
@pytest.mark.parametrize("dims", SHAPES.values(), ids=SHAPES.keys())
def test_a_step_leaves_its_inputs_alone(dims):
    fact, dense = star_batch(500, dims, seed=4)
    params, precisions = mixture(3, fact.design.d, seed=1)
    engine = FactorizedEMEngine(None, params.n_features)
    for batch in (fact, dense):
        gamma, _ = engine.estep_batch(batch, params, precisions)
        centre = params.means + 1.0
        held = [
            gamma, centre, params.weights, params.means, params.covariances,
            precisions.precisions, fact.design.fact_block,
            dense.design.fact_block,
            *fact.design.dim_blocks,
            *(group.codes for group in fact.design.groups),
        ]
        before = [array.copy() for array in held]
        engine.mu_accumulate_batch(batch, gamma)
        engine.sigma_accumulate_batch(batch, gamma, params.means)
        engine.estep_batch(batch, params, precisions)
        engine.step_batch(batch, params, precisions, params.means)
        engine.step_batch(batch, params, precisions, centre)
        for array, copy in zip(held, before):
            np.testing.assert_array_equal(array, copy)


@pytest.mark.parametrize("dims", SHAPES.values(), ids=SHAPES.keys())
def test_per_component_functions_are_row_zero_of_the_stack(dims):
    fact, _ = star_batch(300, dims, seed=7)
    design = fact.design
    params, precisions = mixture(4, design.d, seed=2)
    means, matrices = params.means, precisions.precisions
    gamma = np.random.default_rng(3).dirichlet(np.ones(4), size=design.n)

    left = design.left_t(design.num_dimensions, slice(None))
    quad = stacked_quadratic_form(
        design, left - means[:, : len(left), None], matrices,
        quadform_tables(design, means, matrices),
    )
    mu, sigma = mu_sums(design, gamma), sigma_sums(design, gamma, means)
    for j in range(4):
        np.testing.assert_allclose(
            factorized_quadratic_form(design, means[j], matrices[j]),
            quad[j], rtol=1e-13,
        )
        column = gamma[:, j : j + 1]     # K = 1: one (n, 1) weight column
        np.testing.assert_allclose(
            mu_sums(design, column)[0], mu[j], rtol=1e-13,
        )
        np.testing.assert_allclose(
            sigma_sums(design, column, means[j : j + 1])[0],
            sigma[j], rtol=1e-13, atol=1e-13,
        )


class TestTheFactBlocksMemoryOrder:
    """``project_features`` hands the engines column-major blocks and
    most tests build row-major ones: the kernels read either through
    its own contiguous axis, a tile at a time."""

    N, M, D_R, K = 150_000, 400, 15, 5

    def _step(self, order):
        fact, _ = star_batch(self.N, ((self.M, self.D_R),), 8, order=order)
        assert fact.design.fact_block.flags[f"{order}_CONTIGUOUS"]
        params, precisions = mixture(self.K, fact.design.d, seed=5)
        engine = FactorizedEMEngine(None, params.n_features)
        gamma, _ = engine.estep_batch(fact, params, precisions)   # warm
        dense_batch = Batch(
            fact.sids, FactorizedDesign(fact.design.densify(), [], [])
        )
        peaks = {}
        for name, call in (
            ("estep", lambda: engine.estep_batch(fact, params, precisions)),
            ("mu", lambda: engine.mu_accumulate_batch(fact, gamma)),
            ("sigma", lambda: engine.sigma_accumulate_batch(
                fact, gamma, params.means
            )),
            ("step", lambda: engine.step_batch(
                fact, params, precisions, params.means
            )),
            ("dense step", lambda: engine.step_batch(
                dense_batch, params, precisions, params.means
            )),
        ):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                result = call()
                peaks[name] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            peaks[name + " result"] = result
        return peaks

    def test_both_orders_agree_and_hold_tiles_not_the_batch(self):
        tables = self.M * self.K * (D_S + 1) * 8
        whole_block = self.N * D_S * 8
        retained = self.N * (self.K + 1) * 8        # γ and log-likelihoods
        steps = {order: self._step(order) for order in "CF"}
        for step in steps.values():
            assert step["mu"] < 12 * TILE_BYTES
            assert step["sigma"] < 12 * TILE_BYTES + tables
            assert step["estep"] < 12 * TILE_BYTES + tables + retained
            # not even one whole-batch copy of the fact block
            assert step["sigma"] - tables < whole_block
            assert step["estep"] - tables - retained < whole_block
            # a q ≤ 1 step keeps γ a (K, t) tile: no (n, K) array at all
            assert step["step"] - tables < whole_block
            assert step["dense step"] < self.N * self.K * 8
        for name in ("mu result", "sigma result"):
            np.testing.assert_allclose(
                steps["C"][name], steps["F"][name], rtol=1e-12
            )
        for name in ("step result", "dense step result"):
            for got, want in zip(steps["C"][name], steps["F"][name]):
                np.testing.assert_allclose(got, want, rtol=1e-12)
        for got, want in zip(steps["C"]["estep result"],
                             steps["F"]["estep result"]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@pytest.mark.usefixtures("small_tiles")
@pytest.mark.parametrize("binary", [True, False], ids=["binary", "3-way star"])
def test_whole_fits_agree_across_strategies(db, binary):
    """M = S = F over batches of many tiles, at the cross-strategy
    tolerance the exactness suite already uses."""
    dimensions = (repro.DimensionSpec(40, 4),) + (
        () if binary else (repro.DimensionSpec(7, 3),)
    )
    star = repro.generate_star(
        db,
        repro.StarSchemaConfig(
            n_s=3_000, d_s=D_S, dimensions=dimensions, seed=11,
        ),
    )
    config = EMConfig(n_components=3, max_iter=3, tol=0.0, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", repro.ConvergenceWarning)
        fits = [
            train(db, star.spec, "gmm", strategy, config)
            for strategy in ("M", "S", "F")
        ]
    for other in fits[1:]:
        assert fits[0].params.allclose(other.params, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            fits[0].log_likelihood_history, other.log_likelihood_history,
            rtol=1e-9,
        )
