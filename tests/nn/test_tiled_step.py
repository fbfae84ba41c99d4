"""The training step is the sum of its row tiles.

``MLP.tiled_gradients`` walks a batch in cache-sized tiles and adds the
tiles' ``(loss, LayerGrads)`` up; the engine goes through it, whether
the batch keeps its dimensions or has them inlined.  The reference here
is the single pass the engines made before — forward, loss, backward,
first-layer gradients over the whole batch at once — kept test-local.
A batch no longer than a tile must reproduce it bit for bit; a longer
one only reorders float sums.
"""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ModelError
from repro.join.batches import Batch
from repro.linalg.design import FactorizedDesign
from repro.linalg.groupsum import GroupIndex
from repro.nn.base import NNConfig, run_training
from repro.nn.engines import FactorizedNNEngine
from repro.nn.network import TILE_BYTES, MLP

D_S = 3
SHAPES = {
    "binary": ((40, 4),),
    "3-way star": ((40, 4), (6, 2)),
}
HIDDEN = {"one hidden layer": (256,), "two hidden layers": (32, 256)}
LENGTHS = {
    "1": lambda tile: 1,
    "tile-1": lambda tile: tile - 1,
    "tile": lambda tile: tile,
    "tile+1": lambda tile: tile + 1,
    "3*tile+7": lambda tile: 3 * tile + 7,
}


def star_batch(n, dims, seed):
    """The same ``n`` joined rows as a factorized batch and as one with
    every dimension inlined."""
    rng = np.random.default_rng(seed)
    design = FactorizedDesign(
        rng.normal(size=(n, D_S)),
        [rng.normal(size=shape) for shape in dims],
        [GroupIndex(rng.integers(0, m, size=n), m) for m, _ in dims],
    )
    sids, targets = np.arange(n), rng.normal(size=n)
    return (
        Batch(sids, design, targets),
        Batch(sids, FactorizedDesign(design.densify(), [], []), targets),
    )


def model_for(dims, hidden, activation="sigmoid"):
    d = D_S + sum(width for _, width in dims)
    return MLP((d, *hidden, 1), activation=activation, seed=5)


def single_pass_dense(model, batch, normalization):
    features = batch.design.fact_block
    outputs, cache = model.forward(features)
    loss = model.loss.value(outputs, batch.targets, normalization)
    grads, grad_first_pre = model.backward_to_first_preactivation(
        cache, model.loss.gradient(outputs, batch.targets, normalization)
    )
    grads[0] = model.first_layer.parameter_grads(grad_first_pre, features)
    return loss, grads


def single_pass_factorized(engine, batch, normalization):
    model = engine.model
    outputs, cache = model.forward_from_first_preactivation(
        engine.first_preactivations(batch, engine.dimension_partials(batch))
    )
    loss = model.loss.value(outputs, batch.targets, normalization)
    grads, grad_first_pre = model.backward_to_first_preactivation(
        cache, model.loss.gradient(outputs, batch.targets, normalization)
    )
    grads[0] = engine.first_layer_grads(batch, grad_first_pre)
    return loss, grads


def assert_same(got, want, *, exact, rtol):
    (loss, grads), (ref_loss, ref_grads) = got, want
    assert len(grads) == len(ref_grads)
    if exact:
        assert loss == ref_loss
    else:
        assert loss == pytest.approx(ref_loss, rel=rtol)
    for layer, ref in zip(grads, ref_grads):
        for name in ("weights", "bias"):
            a, b = getattr(layer, name), getattr(ref, name)
            if exact:
                np.testing.assert_array_equal(a, b)
            else:
                np.testing.assert_allclose(
                    a, b, rtol=rtol, atol=rtol * np.abs(b).max()
                )


class TestTileRows:
    def test_one_block_of_the_widest_layer_is_tile_bytes(self):
        assert MLP((20, 50, 1)).tile_rows == TILE_BYTES // (8 * 50)
        assert MLP((20, 50, 400, 1)).tile_rows == TILE_BYTES // (8 * 400)
        # the input width is not a layer's: dense rows are sliced, not
        # copied, and the factorized first layer never widens them
        assert MLP((9000, 50, 1)).tile_rows == TILE_BYTES // (8 * 50)

    def test_a_layer_wider_than_the_block_still_makes_progress(self):
        assert MLP((4, TILE_BYTES, 1)).tile_rows == 1


@pytest.mark.parametrize("hidden", HIDDEN.values(), ids=HIDDEN.keys())
@pytest.mark.parametrize("dims", SHAPES.values(), ids=SHAPES.keys())
@pytest.mark.parametrize("batch_mode", ["full", "per-batch"])
@pytest.mark.parametrize("length", LENGTHS.values(), ids=LENGTHS.keys())
class TestTilesAddUpToTheSinglePass:
    @staticmethod
    def _setup(length, batch_mode, dims, hidden):
        model = model_for(dims, hidden)
        tile = model.tile_rows
        assert tile == 256
        n = length(tile)
        fact, dense = star_batch(n, dims, seed=n)
        # "full" scales every batch by the whole pass's row count,
        # "per-batch" by the batch's own.
        normalization = 10 * n + 3 if batch_mode == "full" else n
        return model, fact, dense, normalization, n <= tile

    def test_dense_engine(self, length, batch_mode, dims, hidden):
        model, _, dense, normalization, one_tile = self._setup(
            length, batch_mode, dims, hidden
        )
        got = FactorizedNNEngine(None, model).batch_gradients(
            dense, normalization
        )
        assert_same(
            got, single_pass_dense(model, dense, normalization),
            exact=one_tile, rtol=1e-10,
        )
        # every dimension inlined, the engine's step is the dense step
        assert_same(
            got,
            model.dense_gradients(
                dense.design.fact_block, dense.targets, normalization
            ),
            exact=True, rtol=0,
        )

    def test_factorized_engine(self, length, batch_mode, dims, hidden):
        model, fact, dense, normalization, one_tile = self._setup(
            length, batch_mode, dims, hidden
        )
        engine = FactorizedNNEngine(None, model)
        got = engine.batch_gradients(fact, normalization)
        assert_same(
            got, single_pass_factorized(engine, fact, normalization),
            exact=one_tile, rtol=1e-10,
        )
        # F-NN and S-NN cut the same rows at the same boundaries.
        assert_same(
            got, engine.batch_gradients(dense, normalization),
            exact=False, rtol=1e-8,
        )


class TestTheStepAroundTheTiles:
    @pytest.mark.parametrize(
        "activation", ["identity", "tanh", "relu"]
    )
    def test_every_activation_tiles(self, activation):
        dims = SHAPES["3-way star"]
        model = model_for(dims, (256,), activation)
        fact, dense = star_batch(3 * model.tile_rows + 7, dims, seed=2)
        engine = FactorizedNNEngine(None, model)
        assert_same(
            engine.batch_gradients(fact, fact.n),
            single_pass_factorized(engine, fact, fact.n),
            exact=False, rtol=1e-10,
        )
        assert_same(
            model.dense_gradients(dense.design.fact_block, dense.targets),
            single_pass_dense(model, dense, dense.n),
            exact=False, rtol=1e-10,
        )

    def test_default_normalization_is_the_batch_not_the_tile(self):
        dims = SHAPES["binary"]
        model = model_for(dims, (256,))
        _, dense = star_batch(2 * model.tile_rows + 1, dims, seed=4)
        features = dense.design.fact_block
        assert_same(
            model.dense_gradients(features, dense.targets),
            model.dense_gradients(features, dense.targets, dense.n),
            exact=True, rtol=0,
        )

    def test_the_step_changes_neither_model_nor_batch(self):
        dims = SHAPES["3-way star"]
        model = model_for(dims, (256,))
        fact, _ = star_batch(2 * model.tile_rows + 9, dims, seed=6)
        before = [
            (layer.weights.copy(), layer.bias.copy()) for layer in model.layers
        ]
        blocks = [fact.design.fact_block.copy()] + [
            block.copy() for block in fact.design.dim_blocks
        ]
        engine = FactorizedNNEngine(None, model)
        first = engine.batch_gradients(fact, fact.n)
        assert_same(
            engine.batch_gradients(fact, fact.n), first, exact=True, rtol=0
        )
        for layer, (weights, bias) in zip(model.layers, before):
            np.testing.assert_array_equal(layer.weights, weights)
            np.testing.assert_array_equal(layer.bias, bias)
        np.testing.assert_array_equal(fact.design.fact_block, blocks[0])
        for block, kept in zip(fact.design.dim_blocks, blocks[1:]):
            np.testing.assert_array_equal(block, kept)

    def test_an_empty_batch_is_still_rejected(self):
        model = model_for(SHAPES["binary"], (8,))
        with pytest.raises(ModelError, match="empty batch"):
            model.dense_gradients(np.empty((0, model.n_inputs)), np.empty(0))

    @pytest.mark.parametrize("batch_mode", ["full", "per-batch"])
    def test_training_over_long_batches_matches_across_engines(
        self, batch_mode
    ):
        """Whole fits, batches of several tiles: the engine over S-'s
        inlined batches and over F-'s stays within the exactness
        suite's ``1e-8``."""
        dims = SHAPES["3-way star"]
        pairs = [star_batch(n, dims, seed=n) for n in (700, 300, 1100)]

        class Access:
            def __init__(self, batches):
                self._batches = batches
                self.num_rows = sum(batch.n for batch in batches)

            def batches(self, epoch=0):
                return iter(self._batches)

        config = NNConfig(
            hidden_sizes=(256,), epochs=3, learning_rate=0.05,
            batch_mode=batch_mode,
        )
        fits = [
            run_training(
                FactorizedNNEngine(
                    Access([pair[side] for pair in pairs]),
                    model_for(dims, (256,)),
                ),
                config, algorithm="test",
            )
            for side in (0, 1)
        ]
        np.testing.assert_allclose(
            fits[0].loss_history, fits[1].loss_history, rtol=1e-8
        )
        for f_layer, s_layer in zip(fits[0].model.layers, fits[1].model.layers):
            np.testing.assert_allclose(
                f_layer.weights, s_layer.weights, rtol=1e-8, atol=1e-12
            )


class TestAStepHoldsTilesNotTheBatch:
    @pytest.mark.parametrize("n", [40_000, 120_000])
    def test_peak_is_a_few_tile_blocks_plus_the_partials(self, n):
        # Forward, backward and the first-layer gradients of one tile
        # are live at once — a handful of (tile, n_h) blocks — next to
        # the (m, n_h) partials of the batch.  A whole-batch step held
        # about seven (n, n_h) blocks: 112 MB at n = 40k, 578 MiB of
        # peak RSS on the e2e benchmark's 200k-row batch.
        m, n_h = 400, 50
        dims = ((m, 15),)
        model = MLP((D_S + 15, n_h, 1), seed=1)
        fact, _ = star_batch(n, dims, seed=8)
        engine = FactorizedNNEngine(None, model)
        engine.batch_gradients(fact, n)         # warm: imports, caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            engine.batch_gradients(fact, n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 12 * TILE_BYTES + m * n_h * 8
        assert peak < n * n_h * 8       # not even one whole-batch block
