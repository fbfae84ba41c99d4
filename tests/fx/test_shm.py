"""Shared-memory arena, worker header rows and the deficit-bounded trim
planner behind the process execution backend."""

import gc
import weakref

import numpy as np
import pytest

from repro.errors import ModelError
from repro.fx.shm import (
    HDR_FLOATS_RESIDENT,
    HEADER_FIELDS,
    SEGMENT_PREFIX,
    ShmArena,
    header_nbytes,
    header_residency,
    header_view,
    plan_trims,
    segment_name,
)
from repro.fx.store import PartialStore

SLACK = 16 * 1024   # interpreter noise, index arrays, columns


def rows_for(width):
    def loader(keys):
        keys = np.asarray(keys, dtype=np.int64)
        return np.repeat(
            keys[:, None].astype(np.float64), width, axis=1
        )
    return loader


class TestArena:
    def test_segment_names_carry_prefix_and_pid(self):
        import os

        name = segment_name("task0")
        assert name.startswith(f"{SEGMENT_PREFIX}-{os.getpid()}-task0-")

    def test_create_attach_and_close(self):
        owner = ShmArena()
        seg = owner.create("t", 4096)
        assert seg.owner and seg.size >= 4096
        other = ShmArena()
        attached = other.attach(seg.name)
        assert not attached.owner
        # Writes through one mapping are visible through the other.
        np.frombuffer(seg.buf, dtype=np.int64, count=1)[0] = 42
        assert np.frombuffer(attached.buf, dtype=np.int64, count=1)[0] == 42
        other.close()
        owner.close()
        owner.close()  # idempotent

    def test_owner_close_unlinks_the_segment(self):
        from multiprocessing import shared_memory

        arena = ShmArena()
        seg = arena.create("t", 1024)
        name = seg.name
        arena.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_release_drops_a_single_segment_early(self):
        arena = ShmArena()
        keep = arena.create("keep", 1024)
        drop = arena.create("drop", 1024)
        arena.release(drop.name)
        assert arena.names == [keep.name]
        arena.close()

    def test_close_in_a_forked_child_is_a_no_op(self):
        # Fork children inherit the arena and its atexit hook; the pid
        # guard must keep them from unlinking the parent's segments.
        arena = ShmArena()
        seg = arena.create("t", 1024)
        arena._pid += 1            # simulate being a different process
        arena.close()
        assert arena.names == [seg.name]   # nothing was dropped
        arena._pid -= 1
        arena.close()

    def test_rejects_empty_segments_and_closed_arena(self):
        arena = ShmArena()
        with pytest.raises(ModelError, match="positive"):
            arena.create("t", 0)
        arena.close()
        with pytest.raises(ModelError, match="closed"):
            arena.create("t", 1024)


class TestHeaders:
    def test_header_layout_round_trips(self):
        arena = ShmArena()
        seg = arena.create("hdr", header_nbytes(3))
        view = header_view(seg.buf, 3)
        assert view.shape == (3, HEADER_FIELDS)
        view[2, HDR_FLOATS_RESIDENT] = 123
        reread = header_view(seg.buf, 3)
        assert reread[2, HDR_FLOATS_RESIDENT] == 123
        view = reread = None
        arena.close()


class TestPlanTrims:
    def test_no_deficit_means_no_trims(self):
        assert plan_trims([100, 200], budget=400) == [0, 0]
        assert plan_trims([], budget=0) == []

    def test_deficit_taken_from_the_largest_resident_first(self):
        assert plan_trims([100, 500, 200], budget=600) == [0, 200, 0]

    def test_trims_cap_at_each_workers_own_residency(self):
        # Deficit 700 exceeds what the largest alone can cover.
        assert plan_trims([100, 500, 200], budget=100) == [0, 500, 200]

    def test_total_never_exceeds_the_deficit(self):
        trims = plan_trims([300, 300, 300], budget=650)
        assert sum(trims) == 250


class TestWorkerPartialStore:
    def test_a_residency_written_into_a_header_row_reads_back(self):
        arena = ShmArena()
        hdr = arena.create("hdr", header_nbytes(1))
        header = header_view(hdr.buf, 1)[0]
        store = PartialStore()
        cache = store.acquire("fp")
        cache.get_many(np.array([5, 6]), rows_for(3))
        held = store.residency()
        header[:len(held)] = held           # what a worker writes
        assert header[HDR_FLOATS_RESIDENT] == 6
        assert header_residency(header) == held
        header = None
        store.close()
        arena.close()

    def test_rows_are_placed_in_the_slab(self, traced):
        store = PartialStore()
        cache = store.acquire("fp")
        cache.get_many(np.array([1, 2, 3]), rows_for(4))
        assert store.floats_resident == 3 * 4
        assert store.stats().bytes_resident == 3 * 4 * 8
        assert traced() >= 3 * 4 * 8        # private numpy memory
        np.testing.assert_array_equal(
            cache.get_many(np.array([3, 1]), None), rows_for(4)([3, 1])
        )
        store.close()

    def test_armed_store_trims_without_a_local_capacity(self):
        store = PartialStore()
        cache = store.acquire("fp")
        cache.get_many(np.arange(10), rows_for(4))
        evicted = store.trim(12)            # 12 floats = 3 width-4 rows
        assert evicted == 3
        assert store.floats_resident == 10 * 4 - 12
        assert cache.keys() == list(range(3, 10))
        store.close()

    def test_a_trimmed_slab_gives_its_block_back(self, traced):
        width = 64                          # rows that dwarf the noise
        store = PartialStore()
        first = store.acquire("fp-1")
        first.get_many(np.arange(100), rows_for(width))
        assert traced() >= 100 * width * 8
        assert store.trim(90 * width) == 90
        # The slab moved to a block sized for the ten rows left.
        assert traced() <= 3 * 10 * width * 8 + SLACK
        assert store.stats().bytes_resident == 10 * width * 8
        np.testing.assert_array_equal(
            first.get_many(np.arange(90, 100), None),
            rows_for(width)(np.arange(90, 100)),
        )
        store.close()

    def test_close_releases_every_buffer_view(self, traced):
        # A store and its caches form a governor reference cycle;
        # close() must give the slabs back at once and break the cycle,
        # so the store goes with its last reference, not at some later
        # collection.
        store = PartialStore()
        cache = store.acquire("fp")
        cache.get_many(np.arange(100), rows_for(64))
        store.close()
        assert cache.bytes_resident == 0
        assert traced() <= SLACK            # while both are still held
        gone = weakref.ref(store)
        gc.disable()
        try:
            store = cache = None
            assert gone() is None
        finally:
            gc.enable()

    def test_trim_on_a_store_that_never_had_a_budget_takes_the_coldest(self):
        store = PartialStore()
        a = store.acquire("fp-a")
        b = store.acquire("fp-b")
        a.get_many(np.arange(4), rows_for(2))       # tick 1
        b.get_many(np.arange(4), rows_for(2))       # tick 2
        a.get_many(np.array([3]), rows_for(2))      # tick 3: a hit
        assert store.capacity_floats is None
        assert store.trim(10) == 5                  # 10 floats = 5 rows
        assert a.keys() == [3]
        assert b.keys() == [2, 3]
        assert store.floats_resident == 3 * 2
        store.close()
