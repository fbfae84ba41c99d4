"""Any int64 RID serves the answers a dense ``0..m-1`` key column does.

A partial-cache table finds a dense, non-negative RID through a
direct-address map and any other through a sorted index, so the same
star is built twice: once keyed ``0..m-1`` and once with its dimension
keys moved into another domain — negative, straddling zero, more than
2^40 apart — by a monotone map that keeps every row, FK reference and
sort order.  The same fitted models, registered on each, must serve
``array_equal`` outputs for the same requests, cold and warm, with and
without a budget that walks rows down the tier ladder; a key outside
the relation must still be refused.
"""

import warnings

import numpy as np
import pytest

import repro
from repro.errors import ModelError
from repro.join.spec import JoinSpec
from repro.storage.schema import Schema, features, foreign_key, key, target

N_S, N_R, D_S, D_R = 240, 30, 3, 4
# (offset, stride): RID i of the dense star is offset + stride * i.
DOMAINS = {
    "negative": (-1_000_000, 1),
    "straddling zero": (-(N_R // 2), 1),
    "sparse": (7, 2**40 + 1),
    "near the int64 floor": (-(2**62), 2**41),
}


def build(db, rows, domain):
    """The star of ``rows`` with its dimension keys in ``domain``."""
    offset, stride = domain
    r_rows, s_rows = (part.copy() for part in rows)
    r_rows[:, 0] = offset + stride * r_rows[:, 0]
    s_rows[:, -1] = offset + stride * s_rows[:, -1]
    db.create_relation(
        "R", Schema([key("rid"), *features("a", D_R)]), r_rows
    )
    db.create_relation(
        "S",
        Schema([
            key("sid"), target("y"), *features("x", D_S),
            foreign_key("fk", "R"),
        ]),
        s_rows,
    )
    return JoinSpec.binary("S", "R")


@pytest.fixture(scope="module")
def star():
    """Rows of a dense star, the models fitted on it, and requests."""
    rng = np.random.default_rng(3)
    fks = rng.integers(0, N_R, size=N_S)
    fks[:N_R] = np.arange(N_R)
    rows = (
        np.column_stack([np.arange(N_R), rng.normal(size=(N_R, D_R))]),
        np.column_stack([
            np.arange(N_S), rng.normal(size=(N_S, 1 + D_S)), fks,
        ]),
    )
    with warnings.catch_warnings(), repro.Database() as db:
        warnings.simplefilter("ignore")
        spec = build(db, rows, (0, 1))
        nn = repro.fit_nn(db, spec, hidden_sizes=(6,), epochs=1)
        gmm = repro.fit_gmm(db, spec, n_components=3, max_iter=2)
    requests = [
        (rng.normal(size=(size, D_S)), rng.integers(0, N_R, size=size))
        for size in (40, 7, 64, 1, 40)
    ]
    return rows, nn, gmm, requests


def serve_all(rows, nn, gmm, requests, domain, **options):
    """Every request through a fresh service over the star in
    ``domain``: NN outputs, GMM labels and scores, in order."""
    offset, stride = domain
    with repro.Database() as db:
        spec = build(db, rows, domain)
        service = repro.serve(db, **options)
        try:
            service.register_nn("nn", nn, spec)
            service.register_gmm("gmm", gmm, spec)
            out = []
            for _ in range(2):                  # cold, then warm
                for x, fks in requests:
                    rids = offset + stride * fks
                    out.append(service.predict("nn", x, [rids]))
                    out.append(service.predict("gmm", x, [rids]))
                    out.append(service.score("gmm", x, [rids]))
            missing = np.array([offset + stride * N_R])
            for model in ("nn", "gmm"):
                with pytest.raises(ModelError, match="dangling"):
                    service.predict(model, np.zeros((1, D_S)), [missing])
            return out
        finally:
            service.close()


@pytest.mark.parametrize("budget", [
    {},
    dict(memory_budget=12 * 8 * 8, store_tiers=("float32", "spill")),
], ids=["unbounded", "tiered budget"])
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_outputs_equal_the_dense_keys(star, domain, budget):
    rows, nn, gmm, requests = star
    want = serve_all(rows, nn, gmm, requests, (0, 1), **budget)
    got = serve_all(rows, nn, gmm, requests, DOMAINS[domain], **budget)
    assert len(got) == len(want)
    for served, dense in zip(got, want):
        np.testing.assert_array_equal(served, dense)
