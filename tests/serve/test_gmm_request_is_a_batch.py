"""Serving scores a mixture through the training kernels.

A request is a training batch with a cache in front of its dimension
tables: ``GMMPredictor``'s factorized arm hands ``gmm.model.posteriors`` the
request as a ``FactorizedDesign`` whose quadratic-form tables are the
partial caches' rows.  So a request's outputs *equal* — bit for bit —
the E-step of the same rows as one training ``Batch``, a tuple scores
the same wherever it sits in whichever request, and a cached partial
row is exactly as wide as the table row plus (all dimensions but the
last) the raw features later dimensions pair with.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import serve_runtime
from repro.data.synthetic import (
    DimensionSpec,
    StarSchemaConfig,
    generate_star,
)
from repro.errors import ModelError
from repro.fx.dedup import DedupPlan
from repro.fx.store import PartialStore
from repro.fx.tiers import FLOAT32_SCORE_RTOL, TIER_FLOAT32
from repro.gmm.engines import FactorizedEMEngine
from repro.gmm.model import (
    GaussianMixtureModel,
    GMMParams,
    log_gaussian_from_quadform,
    log_responsibilities,
)
from repro.join.batches import Batch
from repro.linalg.design import FactorizedDesign
from repro.linalg.groupsum import codes_for_keys
from repro.nn.network import MLP
from repro.serve.predictor import GMMPredictor, NNPredictor
from repro.storage.catalog import Database

D_S = 3
DIMENSIONS = {
    1: (DimensionSpec(30, 4),),
    2: (DimensionSpec(30, 4), DimensionSpec(8, 2)),
    3: (DimensionSpec(30, 4), DimensionSpec(8, 2), DimensionSpec(12, 3)),
}


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def make_star(db, dimensions, *, n_s=700, d_s=D_S, seed=5):
    return generate_star(
        db,
        StarSchemaConfig(
            n_s=n_s, d_s=d_s, dimensions=tuple(dimensions), seed=seed
        ),
    ).spec


def mixture(k, d, seed=3) -> GaussianMixtureModel:
    """A random full-covariance mixture (no fit: the kernels, not EM,
    are under test)."""
    rng = np.random.default_rng(seed)
    roots = rng.normal(size=(k, d, d))
    return GaussianMixtureModel(
        GMMParams(
            rng.dirichlet(np.ones(k) * 4.0),
            rng.normal(size=(k, d)),
            roots @ roots.transpose(0, 2, 1) + d * np.eye(d),
        )
    )


def stored_request(db, spec, rows=slice(None)):
    """Stored fact tuples as a ``(features, [fk arrays])`` request."""
    fact = spec.resolve(db).fact
    stored = fact.scan()[rows]
    return fact.project_features(stored), [
        stored[:, fact.schema.fk_position(dim.relation)].astype(np.int64)
        for dim in spec.dimensions
    ]


def as_training_batch(db, spec, features, fks) -> Batch:
    """The request as the join access path would have batched it."""
    plan = DedupPlan.for_batch(fks)
    blocks = [
        dim.relation.features()[
            codes_for_keys(dedup.unique, dim.relation.keys())
        ]
        for dim, dedup in zip(spec.resolve(db).dimensions, plan.dims)
    ]
    design = FactorizedDesign.from_plan(features, blocks, plan)
    return Batch(np.arange(plan.rows), design, plan=plan)


def textbook_posteriors(model, wide):
    """Eq. 1–2 one component at a time over wide rows."""
    params, precisions = model.params, model.precisions
    log_gauss = np.empty((wide.shape[0], params.n_components))
    for j in range(params.n_components):
        centered = wide - params.means[j]
        quadform = np.einsum(
            "ni,ij,nj->n", centered, precisions.precisions[j], centered
        )
        log_gauss[:, j] = log_gaussian_from_quadform(
            quadform, precisions.log_dets[j], params.n_features
        )
    return log_gauss, *log_responsibilities(log_gauss, params.weights)


# -- (a) serving ≡ training ----------------------------------------------------


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("q", [1, 2, 3])
class TestARequestIsATrainingBatch:
    def test_factorized_outputs_equal_the_factorized_estep(self, db, q, k):
        spec = make_star(db, DIMENSIONS[q])
        model = mixture(k, spec.resolve(db).total_features)
        features, fks = stored_request(db, spec, slice(40, 640))
        batch = as_training_batch(db, spec, features, fks)
        gamma, log_likelihoods = FactorizedEMEngine(
            None, model.params.n_features
        ).estep_batch(batch, model.params, model.precisions)

        predictor = GMMPredictor(db, spec, model)
        for _ in ("cold", "warm"):
            np.testing.assert_array_equal(
                predictor.responsibilities(features, fks), gamma
            )
            np.testing.assert_array_equal(
                predictor.score_samples(features, fks), log_likelihoods
            )
            np.testing.assert_array_equal(
                predictor.predict(features, fks), gamma.argmax(axis=1)
            )

        log_gauss, ref_gamma, ref_ll = textbook_posteriors(
            model, batch.design.densify()
        )
        np.testing.assert_allclose(gamma, ref_gamma, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(log_likelihoods, ref_ll, rtol=1e-9)
        np.testing.assert_allclose(
            predictor.log_gaussians(features, fks), log_gauss, rtol=1e-9
        )

    def test_materialized_outputs_equal_the_dense_estep(self, db, q, k):
        spec = make_star(db, DIMENSIONS[q])
        model = mixture(k, spec.resolve(db).total_features)
        features, fks = stored_request(db, spec, slice(0, 300))
        wide = as_training_batch(db, spec, features, fks).design.densify()
        gamma, log_likelihoods = FactorizedEMEngine(
            None, model.params.n_features
        ).estep_batch(
            Batch(np.arange(300), FactorizedDesign(wide, [], [])),
            model.params, model.precisions,
        )
        predictor = GMMPredictor(db, spec, model, strategy="materialized")
        np.testing.assert_array_equal(
            predictor.responsibilities(features, fks), gamma
        )
        np.testing.assert_array_equal(
            predictor.score_samples(features, fks), log_likelihoods
        )
        # ... and the bare model on the same wide rows is that call too
        np.testing.assert_array_equal(model.responsibilities(wide), gamma)
        np.testing.assert_array_equal(
            model.score_samples(wide), log_likelihoods
        )
        np.testing.assert_array_equal(
            model.log_gaussians(wide), predictor.log_gaussians(features, fks)
        )


# -- (b) position invariance ---------------------------------------------------


@pytest.fixture(scope="module")
def e2e_like(tmp_path_factory):
    """The e2e star's widths (``K = 5``, ``d_S = 5``, ``d_R = 15 / 10``)
    at a few dozen RIDs: a 2,048-row request spans four row tiles."""
    db = Database(tmp_path_factory.mktemp("position") / "db")
    spec = make_star(
        db, (DimensionSpec(60, 15), DimensionSpec(9, 10)),
        n_s=2_600, d_s=5, seed=9,
    )
    model = mixture(5, 30)
    features, fks = stored_request(db, spec)
    warm = GMMPredictor(db, spec, model)
    warm.predict(features, fks)                     # every RID resident
    alone = [
        GMMPredictor(db, spec, model).score_samples(
            features[t:t + 1], [fk[t:t + 1] for fk in fks]
        )[0]
        for t in range(64)
    ]
    yield db, spec, model, features, fks, warm, alone
    warm.close()
    db.close(delete=True)


class TestATupleScoresTheSameAnywhere:
    """The contract ``outputs_bit_exact`` (scenarios) and the e2e
    oracle's bit-exact GMM labels lean on."""

    @settings(max_examples=60, deadline=None)
    @given(
        tuple_index=st.integers(0, 63),
        size=st.sampled_from([1, 7, 2048]),
        position=st.floats(0.0, 1.0, exclude_max=True),
        warm=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_alone_or_inside_any_request_cold_or_warm(
        self, e2e_like, tuple_index, size, position, warm, seed
    ):
        db, spec, model, features, fks, warmed, alone = e2e_like
        offset = int(position * size)
        rows = np.random.default_rng(seed).integers(
            0, features.shape[0], size=size
        )
        rows[offset] = tuple_index
        predictor = (
            warmed if warm else GMMPredictor(db, spec, model)
        )
        request = features[rows], [fk[rows] for fk in fks]
        scores = predictor.score_samples(*request)
        labels = predictor.predict(*request)
        gamma = predictor.responsibilities(*request)
        assert scores[offset] == alone[tuple_index]
        assert labels[offset] == gamma[offset].argmax()
        # every other row of the request, against the warm whole-table pass
        np.testing.assert_array_equal(
            scores, warmed.score_samples(features, fks)[rows]
        )
        np.testing.assert_array_equal(
            labels, warmed.predict(features, fks)[rows]
        )


# -- (c) width -----------------------------------------------------------------


class TestPartialRowWidth:
    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_width_is_the_table_row_plus_coupled_features(self, db, q, k):
        spec = make_star(db, DIMENSIONS[q], n_s=60)
        model = mixture(k, spec.resolve(db).total_features)
        predictor = GMMPredictor(db, spec, model)
        widths = [dim.n_features for dim in DIMENSIONS[q]]
        left = D_S
        for i, (builder, d_i) in enumerate(
            zip(predictor.builders, widths), start=1
        ):
            assert builder.width == k * (left + 1) + d_i * (i < q)
            rows = builder.compute(np.ones((4, d_i)))
            assert rows.shape == (4, builder.width)
            table, block = builder.split(rows)
            assert table.shape == (4, k, left + 1)
            assert block.shape == (4, d_i * (i < q))
            assert table.flags.c_contiguous and block.flags.c_contiguous
            left += d_i

    def test_the_e2e_star_warm_holds_a_third_of_what_it_held(
        self, db, traced
    ):
        """``K = 5``, ``d_S = 5``, R1 20k × 15, R2 500 × 10: the slab
        rows were 155 / 80 floats wide, the table rows are 45 / 105."""
        n_r1, n_r2 = 20_000, 500
        spec = make_star(
            db, (DimensionSpec(n_r1, 15), DimensionSpec(n_r2, 10)),
            n_s=200, d_s=5,
        )
        model = mixture(5, 30)
        before = traced()
        predictor = GMMPredictor(db, spec, model)
        assert [b.width for b in predictor.builders] == [45, 105]
        rids = np.arange(n_r1)
        predictor.predict(
            np.zeros((n_r1, 5)), [rids, rids % n_r2]
        )
        held = traced() - before
        cached = sum(cache.stats().bytes_resident for cache in predictor.caches)
        assert cached == (n_r1 * 45 + n_r2 * 105) * 8
        slab_era = (n_r1 * 155 + n_r2 * 80) * 8
        assert 3 * cached <= slab_era
        # what the process really holds: the rows, the slabs' growth
        # slack and index columns — still under half the old rows alone
        assert cached <= held <= slab_era // 2
        predictor.close()


# -- (d) corners ---------------------------------------------------------------


class TestCorners:
    @pytest.mark.parametrize("q", [1, 2])
    def test_an_empty_request_returns_empty_outputs(self, db, q):
        spec = make_star(db, DIMENSIONS[q], n_s=60)
        model = mixture(3, spec.resolve(db).total_features)
        empty_fks = [np.empty(0, dtype=np.int64)] * q
        for strategy in ("factorized", "materialized"):
            predictor = GMMPredictor(db, spec, model, strategy=strategy)
            none = np.empty((0, D_S))
            assert predictor.predict(none, empty_fks).shape == (0,)
            assert predictor.score_samples(none, empty_fks).shape == (0,)
            assert predictor.responsibilities(none, empty_fks).shape == (0, 3)
            assert predictor.log_gaussians(none, empty_fks).shape == (0, 3)

    def test_one_component_owns_every_tuple(self, db):
        spec = make_star(db, DIMENSIONS[2], n_s=90)
        model = mixture(1, spec.resolve(db).total_features)
        features, fks = stored_request(db, spec)
        predictor = GMMPredictor(db, spec, model)
        np.testing.assert_array_equal(
            predictor.responsibilities(features, fks), np.ones((90, 1))
        )
        np.testing.assert_array_equal(
            predictor.predict(features, fks), np.zeros(90, dtype=np.int64)
        )
        np.testing.assert_array_equal(
            predictor.score_samples(features, fks),
            predictor.log_gaussians(features, fks)[:, 0],
        )

    @pytest.mark.parametrize("q", [1, 2])
    def test_float32_tier_contract_on_the_table_row(self, db, q):
        """Labels equal, scores within ``FLOAT32_SCORE_RTOL`` when every
        partial row comes back from the float32 rung."""
        spec = make_star(db, DIMENSIONS[q])
        model = mixture(5, spec.resolve(db).total_features)
        features, fks = stored_request(db, spec)
        exact = GMMPredictor(db, spec, model)
        store = PartialStore(tiers=(TIER_FLOAT32,))
        tiered = GMMPredictor(db, spec, model, store=store)
        tiered.predict(features, fks)               # fill
        # Every row one rung down, through the governor's victim API.
        held = 0
        for cache in tiered.caches:
            held += cache.evict(np.array(cache.keys(), dtype=np.int64))[0]
        demoted = store.stats().tier_demotions[TIER_FLOAT32]
        assert demoted == held > 0
        np.testing.assert_array_equal(
            tiered.predict(features, fks), exact.predict(features, fks)
        )
        scores = exact.score_samples(features, fks)
        np.testing.assert_allclose(
            tiered.score_samples(features, fks), scores,
            rtol=FLOAT32_SCORE_RTOL,
        )
        assert store.stats().tier_promotions[TIER_FLOAT32] == demoted
        tiered.close()
        store.close()


# -- malformed requests --------------------------------------------------------


@pytest.fixture
def predictors(db):
    """One predictor per family and strategy over a 3-way star."""
    spec = make_star(db, DIMENSIONS[2], n_s=80)
    d = spec.resolve(db).total_features
    gmm, nn = mixture(2, d), MLP((d, 4, 1))
    return [
        GMMPredictor(db, spec, gmm),
        GMMPredictor(db, spec, gmm, strategy="materialized"),
        NNPredictor(db, spec, nn),
        NNPredictor(db, spec, nn, strategy="materialized"),
    ]


class TestMalformedRequests:
    GOOD = [[1, 2, 3], [0, 1, 2]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fact_features_are_refused(self, predictors, bad):
        """``argmax`` over an all-NaN posterior row is component 0 — a
        silent wrong label — so the shared seam refuses the request."""
        features = np.zeros((3, D_S))
        features[1, 2] = bad
        fks = [np.asarray(fk) for fk in self.GOOD]
        for predictor in predictors:
            with pytest.raises(ModelError, match="finite.*row 1"):
                predictor.predict(features, fks)

    @pytest.mark.parametrize(
        "bad, shown",
        [
            ([1.7, 2.2, 3.9], "1.7"),
            ([1.0, np.nan, 3.0], "nan"),
            ([1.0, 2.0, np.inf], "inf"),
            ([True, False, True], "True"),
            (np.array(["1", "2", "3"], dtype=object), "1"),
            ([1e30, 2.0, 3.0], "1e\\+30"),
        ],
    )
    def test_non_integral_foreign_keys_are_refused(
        self, predictors, bad, shown
    ):
        features = np.zeros((3, D_S))
        good = np.asarray(self.GOOD[1])
        message = f"dimension 0 \\('R1'\\).*integers.*{shown}"
        for predictor in predictors:
            for fks in (
                {"R1": bad, "R2": good},                      # dict
                [np.asarray(bad), good],                      # sequence
            ):
                with pytest.raises(ModelError, match=message):
                    predictor.predict(features, fks)
        with pytest.raises(ModelError, match="dimension 1 \\('R2'\\)"):
            predictors[0].predict(features, {"R1": good, "R2": [0.5, 1, 2]})

    def test_a_fractional_column_of_an_n_by_q_block_is_refused(
        self, predictors
    ):
        features = np.zeros((3, D_S))
        block = np.array([[1, 0], [2, 1.5], [3, 2]])
        for predictor in predictors:
            with pytest.raises(ModelError, match="'R2'.*1.5"):
                predictor.predict(features, block)

    def test_integral_floats_and_every_integer_dtype_still_serve(
        self, predictors
    ):
        features = np.zeros((3, D_S))
        want = [
            predictor.predict(features, [np.asarray(fk) for fk in self.GOOD])
            for predictor in predictors
        ]
        for dtype in (np.float64, np.float32, np.int32, np.uint8, np.int64):
            fks = np.asarray(self.GOOD, dtype=dtype).T      # (n, q)
            for predictor, expected in zip(predictors, want):
                np.testing.assert_array_equal(
                    predictor.predict(features, fks), expected
                )


class TestMalformedRequestsThroughTheRuntime:
    """The thread executor refuses the same requests, on the caller's
    thread, in every foreign-key form — and keeps serving afterwards."""

    @pytest.fixture
    def runtime(self, db):
        spec = make_star(db, DIMENSIONS[2], n_s=80)
        d = spec.resolve(db).total_features
        with serve_runtime(db, num_workers=2, max_wait_ms=1.0) as rt:
            rt.register_gmm("clusters", mixture(2, d), spec)
            rt.register_nn("ratings", MLP((d, 4, 1)), spec)
            yield rt

    @pytest.mark.parametrize("name", ["clusters", "ratings"])
    def test_truncating_keys_and_nan_rows_fail_fast(self, runtime, name):
        features = np.zeros((3, D_S))
        good, bad = np.array([0, 1, 2]), np.array([1.7, 2.2, 3.9])
        for fks in (
            {"R1": bad, "R2": good},                          # dict
            np.column_stack([bad, good]),                     # (n, q)
            [bad, good],                                      # sequence
        ):
            with pytest.raises(ModelError, match="'R1'.*integers.*1.7"):
                runtime.submit(name, features, fks)
        with pytest.raises(ModelError, match="'R2'.*nan"):
            runtime.submit(name, features, {"R1": good, "R2": [0, np.nan, 1]})
        poisoned = features.copy()
        poisoned[2, 0] = np.nan
        with pytest.raises(ModelError, match="finite.*row 2"):
            runtime.submit(name, poisoned, [good, good])
        served = runtime.predict(name, features, np.column_stack([good, good]))
        assert served.shape[0] == 3
