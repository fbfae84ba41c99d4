"""Admission normalizes a request once, on the caller's thread, and a
request that is already canonical — a 2-D float64 ndarray plus a list
or tuple of ``q`` 1-D int64 ndarrays of length ``n`` — is admitted as
it is.  Every form, canonical or not, must come out exactly as the
general coercion path left it: the same arrays, or the same error.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.data.synthetic import DimensionSpec, StarSchemaConfig, generate_star
from repro.errors import ModelError
from repro.serve.predictor import _ServingPredictor
from repro.storage.catalog import Database

D_S = 3
ROWS = (30, 8)      # rows per dimension


def reference_fact_features(base, fact_features):
    """The general path of ``_ServingPredictor._fact_features``, as it
    was before canonical requests skipped it."""
    features = np.atleast_2d(np.asarray(fact_features, dtype=np.float64))
    if features.shape[1] != base.d_s:
        raise ModelError(
            f"fact features have width {features.shape[1]}, the fact "
            f"relation {base.resolved.fact.name!r} has {base.d_s}"
        )
    finite = np.isfinite(features)
    if not finite.all():
        row, column = np.argwhere(~finite)[0]
        raise ModelError(
            f"fact features must be finite; row {row} holds "
            f"{features[row, column]} in column {column}"
        )
    return features


def reference_rids(base, values, i):
    values = np.asarray(values).ravel()
    if values.dtype.kind == "i":
        return values.astype(np.int64, copy=False)
    if values.dtype.kind in "uf" or not values.size:
        with np.errstate(invalid="ignore"):
            rids = values.astype(np.int64, copy=False)
        exact = rids == values
        if exact.all():
            return rids
        offending = values[~exact][0]
    else:
        offending = values[0]
    raise ModelError(
        f"foreign keys for dimension {i} "
        f"({base.resolved.dimensions[i].relation.name!r}) must be "
        f"integers, got {offending} ({values.dtype})"
    )


def reference_fk_arrays(base, fk_values, n):
    """The general path of ``_ServingPredictor._fk_arrays``."""
    q = base.num_dimensions
    if isinstance(fk_values, dict):
        arrays = []
        for dim in base.resolved.dimensions:
            name = dim.relation.name
            if name not in fk_values:
                raise ModelError(
                    f"request is missing foreign keys for {name!r}"
                )
            arrays.append(fk_values[name])
    elif (
        isinstance(fk_values, (list, tuple))
        and len(fk_values) == q
        and all(isinstance(v, np.ndarray) and v.ndim == 1 for v in fk_values)
    ):
        arrays = list(fk_values)
    else:
        fk_values = np.asarray(fk_values)
        if fk_values.ndim == 1 and q == 1:
            arrays = [fk_values]
        elif fk_values.ndim == 2 and fk_values.shape[1] == q:
            arrays = [fk_values[:, i] for i in range(q)]
        else:
            raise ModelError(
                f"cannot interpret foreign keys of shape "
                f"{fk_values.shape} for a {q}-dimension join"
            )
    out = []
    for i, array in enumerate(arrays):
        array = reference_rids(base, array, i)
        if array.shape != (n,):
            raise ModelError(
                f"foreign keys for dimension {i} have shape "
                f"{array.shape}, expected ({n},)"
            )
        out.append(array)
    return out


def prefix(q):
    """Dimension names of the ``q``-dimension star: ``D{q}_1`` …"""
    return f"D{q}_"


def outcome(normalize):
    """``("ok", result)`` or ``("error", message)``."""
    try:
        return "ok", normalize()
    except ModelError as error:
        return "error", str(error)


@pytest.fixture(scope="module")
def bases():
    """``q -> _ServingPredictor`` over a binary and a 3-way star (the
    model-less request normalizer the process executor validates with)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with Database() as db:
            yield {
                q: _ServingPredictor(db, generate_star(
                    db, StarSchemaConfig(
                        n_s=40, d_s=D_S, seed=q, dimensions=tuple(
                            DimensionSpec(rows, 2) for rows in ROWS[:q]
                        ),
                    ), fact_name=f"S{q}", dimension_prefix=prefix(q),
                ).spec)
                for q in (1, 2)
            }


FEATURE_FORMS = (
    "canonical", "float32", "int", "nested list", "one row 1-D",
    "fortran order", "wide", "narrow", "non-finite",
)
FK_FORMS = (
    "canonical list", "canonical tuple", "dict", "(n, q) array",
    "(n, q) nested list", "(n,) array", "int32", "uint", "integral float",
    "fractional float", "nan", "inf", "too long", "too short",
    "too few dimensions", "a 2-D member",
)


@st.composite
def requests(draw):
    """``(q, features, fks, canonical)`` in one of the forms above."""
    q = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(1, 6))
    feature_form = draw(st.sampled_from(FEATURE_FORMS))
    fk_form = draw(st.sampled_from(FK_FORMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    width = D_S + {"wide": 1, "narrow": -1}.get(feature_form, 0)
    x = rng.normal(size=(n, width))
    if feature_form == "non-finite":
        x[rng.integers(n), rng.integers(width)] = draw(
            st.sampled_from((np.nan, np.inf, -np.inf))
        )
    features = {
        "float32": lambda: x.astype(np.float32),
        "int": lambda: np.round(x * 10).astype(np.int64),
        "nested list": x.tolist,
        "one row 1-D": lambda: x[0],
        "fortran order": lambda: np.asfortranarray(x),
    }.get(feature_form, lambda: x)()
    rids = [rng.integers(0, rows, size=n) for rows in ROWS[:q]]
    column_block = np.column_stack(rids)
    fks = {
        "canonical list": lambda: list(rids),
        "canonical tuple": lambda: tuple(rids),
        "dict": lambda: {f"{prefix(q)}{i + 1}": r for i, r in enumerate(rids)},
        "(n, q) array": lambda: column_block,
        "(n, q) nested list": column_block.tolist,
        "(n,) array": lambda: rids[0],
        "int32": lambda: [r.astype(np.int32) for r in rids],
        "uint": lambda: [r.astype(np.uint16) for r in rids],
        "integral float": lambda: [r.astype(np.float64) for r in rids],
        "fractional float": lambda: [r + 0.5 for r in rids],
        "nan": lambda: [np.where(r == r[0], np.nan, r) for r in rids],
        "inf": lambda: [np.where(r == r[0], np.inf, r) for r in rids],
        "too long": lambda: [np.append(r, 0) for r in rids],
        "too short": lambda: [r[:-1] for r in rids],
        "too few dimensions": lambda: rids[:-1],
        "a 2-D member": lambda: [r[:, None] for r in rids],
    }[fk_form]()
    canonical = feature_form in ("canonical", "fortran order", "non-finite",
                                 "wide", "narrow") and fk_form in (
        "canonical list", "canonical tuple", "too long", "too short")
    return q, features, fks, canonical


class TestTheFastPathIsTheGeneralPath:
    @settings(max_examples=400, deadline=None)
    @given(requests())
    def test_same_arrays_or_same_error(self, bases, drawn):
        q, features, fks, canonical = drawn
        base = bases[q]

        def general():
            x = reference_fact_features(base, features)
            return x, reference_fk_arrays(base, fks, x.shape[0])

        def admitted():
            x = base._fact_features(features)
            return x, base._fk_arrays(fks, x.shape[0])

        (expected_kind, expected), (kind, got) = (
            outcome(general), outcome(admitted)
        )
        assert kind == expected_kind
        if kind == "error":
            assert got == expected
            return
        (x, normalized), (ref_x, ref_fks) = got, expected
        assert x.dtype == ref_x.dtype == np.float64
        assert x.shape == ref_x.shape and np.array_equal(x, ref_x)
        assert type(normalized) is list and normalized is not fks
        assert len(normalized) == len(ref_fks) == q
        for array, ref in zip(normalized, ref_fks):
            assert array.dtype == ref.dtype == np.int64
            assert array.shape == ref.shape and np.array_equal(array, ref)
        if canonical:       # admitted as it is: no copy, no view
            assert x is features
            assert all(a is b for a, b in zip(normalized, fks))


def test_a_caller_mutating_its_fk_list_after_submit_changes_nothing():
    """The queued request holds a list of its own: replacing an entry
    of the caller's list while the request lingers is not seen."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with Database() as db:
            spec = generate_star(db, StarSchemaConfig(
                n_s=60, d_s=D_S, seed=4, with_target=True,
                dimensions=(DimensionSpec(30, 2), DimensionSpec(8, 2)),
            )).spec
            nn = repro.fit_nn(db, spec, hidden_sizes=(4,), epochs=1, seed=1)
            rng = np.random.default_rng(0)
            x = rng.normal(size=(5, D_S))
            rids = [rng.integers(0, rows, size=5) for rows in (30, 8)]
            # A lone request lingers for max_wait_ms before it executes.
            with repro.serve_runtime(db, num_workers=1,
                                     max_wait_ms=200.0) as runtime:
                runtime.register_nn("m", nn, spec)
                expected = runtime.predict("m", x, [r.copy() for r in rids])
                fks = list(rids)
                future = runtime.submit("m", x, fks)
                fks[0] = (rids[0] + 1) % 30
                fks[1] = (rids[1] + 1) % 8
                np.testing.assert_array_equal(future.result(10.0), expected)
