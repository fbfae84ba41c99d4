"""A relation's primary-key index: sorted once, extended by appends,
owned by the relation object (``Relation.key_index``)."""

import sys
import threading

import numpy as np
import pytest

from repro.errors import ModelError, StorageError
from repro.storage.catalog import Database
from repro.storage.schema import Schema, features, key

SCHEMA = Schema([key("rid"), *features("a", 2)])


def rows_for(keys):
    keys = np.asarray(keys, dtype=np.float64)
    return np.column_stack([keys, keys * 10.0, -keys])


@pytest.fixture
def small(tmp_path):
    """38 rows, 4 to a page (the last page half full), keys stored in
    descending order so heap rows and sorted keys disagree."""
    database = Database(tmp_path / "db", page_size_bytes=96)
    database.create_relation("R", SCHEMA, rows_for(np.arange(38)[::-1]))
    yield database
    database.close(delete=True)


def reads(db):
    return db.stats.reads_for("R")


def holds(relation, positions, keys):
    """Whether heap rows ``positions`` hold primary keys ``keys``."""
    rows = relation.heap.read_rows(positions)
    return np.array_equal(relation.project_keys(rows), keys)


class TestBuiltOnce:
    def test_the_first_probe_scans_and_a_warm_one_reads_no_page(self, small):
        relation = small["R"]
        before = reads(small)
        assert relation.positions_of_keys(np.array([37])).tolist() == [0]
        assert reads(small) - before == relation.npages
        before = reads(small)
        index = relation.key_index()
        positions = relation.positions_of_keys(np.array([0, 20, 37, 0]))
        assert reads(small) == before
        assert relation.key_index() is index
        assert positions.tolist() == [37, 17, 0, 37]

    def test_after_an_append_the_probe_reads_only_the_tail(self, small):
        relation = small["R"]
        relation.key_index()
        small.append_rows("R", rows_for([100, 90, 95, 80, 85]))
        before = reads(small)
        positions = relation.positions_of_keys(np.array([85, 3, 100]))
        # Rows 38..42 lie on pages 9 (half full before) and 10.
        assert reads(small) - before == 2
        assert positions.tolist() == [42, 34, 38]
        before = reads(small)
        relation.positions_of_keys(np.array([90]))
        assert reads(small) == before

    def test_dangling_keys_raise(self, small):
        with pytest.raises(ModelError, match="dangling"):
            small["R"].positions_of_keys(np.array([3, 38]))


class TestAppendsAreChecked:
    def test_a_batch_repeating_a_new_key_is_refused_before_any_write(
        self, small
    ):
        relation = small["R"]
        version = small.row_version("R")
        with pytest.raises(StorageError, match="duplicate"):
            small.append_rows("R", rows_for([77, 78, 77]))
        assert relation.nrows == 38
        assert small.row_version("R") == version
        small.append_rows("R", rows_for([77]))
        assert relation.positions_of_keys(np.array([77])).tolist() == [38]

    def test_a_key_already_stored_is_refused(self, small):
        with pytest.raises(StorageError, match="duplicate"):
            small.append_rows("R", rows_for([50, 12]))
        assert small["R"].nrows == 38

    def test_a_keyless_relation_appends_unchecked(self, small):
        small.create_relation(
            "T", Schema(list(features("x", 2))), np.zeros((3, 2))
        )
        small.append_rows("T", np.zeros((2, 2)))
        assert small["T"].nrows == 5


def test_probes_racing_appends_find_every_key_where_it_is(small):
    """Probers extend the index concurrently, with no lock: whichever
    extension lands last, no position may point at another key."""
    relation = small["R"]
    relation.key_index()
    stop = threading.Event()
    wrong, probes = [], []

    def probe(seed):
        rng = np.random.default_rng(seed)
        while not stop.is_set():
            present = relation.nrows        # keys 0 .. nrows - 1 exist
            keys = rng.integers(0, present, size=8)
            positions = relation.positions_of_keys(keys)
            if not holds(relation, positions, keys):
                wrong.append((keys, positions))
            probes.append(seed)

    probers = [threading.Thread(target=probe, args=(s,)) for s in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for prober in probers:
            prober.start()
        for first in range(38, 38 + 3 * 60, 3):
            small.append_rows("R", rows_for(first + np.arange(3)))
    finally:
        stop.set()
        for prober in probers:
            prober.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(prober.is_alive() for prober in probers)
    assert wrong == [] and set(probes) == {0, 1, 2, 3}
    keys = np.arange(relation.nrows)
    assert holds(relation, relation.positions_of_keys(keys), keys)


def test_a_recreated_relation_answers_from_its_own_rows(small):
    """Same name, same row count, other row order: an index held by
    name (or by row count) would answer from the dropped rows."""
    old = small["R"]
    old.key_index()
    small.drop_relation("R")
    small.create_relation("R", SCHEMA, rows_for(np.arange(38)))
    new = small["R"]
    assert new is not old
    assert new.positions_of_keys(np.array([0, 37])).tolist() == [0, 37]
    small.drop_relation("R")
    small.create_relation("R", SCHEMA, rows_for([5, 100, 7]))
    assert small["R"].positions_of_keys(np.array([7, 100])).tolist() == [2, 1]
    with pytest.raises(ModelError, match="dangling"):
        small["R"].positions_of_keys(np.array([0]))
