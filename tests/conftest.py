"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.data.synthetic import (
    DimensionSpec,
    StarSchemaConfig,
    generate_star,
)
from repro.storage.catalog import Database
from repro.storage.schema import (
    Schema,
    feature,
    features,
    foreign_key,
    key,
    target,
)


@pytest.fixture
def traced():
    """``traced()`` = bytes of numpy array buffers allocated since the
    fixture started and still held (numpy reports its buffers to
    tracemalloc under a domain of its own) — the black-box way to ask
    what a cache really keeps, whoever holds it."""
    only_numpy = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def buffers() -> int:
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces(only_numpy)
        return sum(trace.size for trace in snapshot.traces)

    tracemalloc.start()
    base = buffers()
    yield lambda: buffers() - base
    tracemalloc.stop()


@pytest.fixture
def db(tmp_path):
    """A fresh on-disk database in the test's temp directory."""
    database = Database(tmp_path / "db")
    yield database
    database.close(delete=True)


@pytest.fixture
def tiny_db(tmp_path):
    """A database with small pages so multi-page behaviour is exercised."""
    database = Database(tmp_path / "tinydb", page_size_bytes=256)
    yield database
    database.close(delete=True)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_binary_relations(db, rng, *, n_s=300, n_r=20, d_s=3, d_r=4,
                          with_target=False, fact="S", dim="R"):
    """Hand-rolled binary star relations (independent of the generator)."""
    r_rows = np.column_stack(
        [np.arange(n_r, dtype=np.float64), rng.normal(size=(n_r, d_r))]
    )
    db.create_relation(
        dim, Schema([key("rid"), *features("a", d_r)]), r_rows
    )
    columns = [key("sid")]
    parts = [np.arange(n_s, dtype=np.float64)[:, None]]
    if with_target:
        columns.append(target("y"))
        parts.append(rng.normal(size=(n_s, 1)))
    columns.extend(features("x", d_s))
    parts.append(rng.normal(size=(n_s, d_s)))
    columns.append(foreign_key("fk", dim))
    fks = rng.integers(0, n_r, size=n_s)
    fks[:n_r] = np.arange(n_r)  # every key referenced
    parts.append(fks[:, None].astype(np.float64))
    db.create_relation(fact, Schema(columns), np.concatenate(parts, axis=1))
    from repro.join.spec import JoinSpec

    return JoinSpec.binary(fact, dim)


@pytest.fixture
def binary_spec(db, rng):
    """A small hand-built S ⋈ R with no target."""
    return make_binary_relations(db, rng)


@pytest.fixture
def binary_target_spec(db, rng):
    """A small hand-built S ⋈ R with a target column."""
    return make_binary_relations(db, rng, with_target=True)


@pytest.fixture
def binary_star(db):
    """A generated binary star (with target) via the synthetic generator."""
    config = StarSchemaConfig.binary(
        n_s=500, n_r=25, d_s=3, d_r=5, with_target=True, seed=7
    )
    return generate_star(db, config)


@pytest.fixture
def multiway_star(db):
    """A generated 3-way star (S ⋈ R1 ⋈ R2) with target."""
    config = StarSchemaConfig(
        n_s=400,
        d_s=3,
        dimensions=(DimensionSpec(15, 4), DimensionSpec(9, 2)),
        with_target=True,
        seed=11,
    )
    return generate_star(db, config)
