"""Shared-memory arena, slab allocator and the deficit-bounded trim
planner behind the process execution backend."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.fx.shm import (
    HDR_FLOATS_RESIDENT,
    HEADER_FIELDS,
    SEGMENT_PREFIX,
    ShmArena,
    SlabAllocator,
    header_nbytes,
    header_view,
    plan_trims,
    segment_name,
)
from repro.fx.store import PartialStore


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

        name = segment_name("part0")
        assert name.startswith(f"{SEGMENT_PREFIX}-{os.getpid()}-part0-")

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


class TestSlabAllocator:
    def test_bump_allocation_and_view_aliasing(self):
        arena = ShmArena()
        seg = arena.create("slab", 1024)
        alloc = SlabAllocator(seg.buf)
        offset, view = alloc.allocate(4)
        assert offset == 0 and view.shape == (4,)
        view[:] = 7.0
        # The slot is a window into the shared buffer, not a copy.
        raw = np.frombuffer(seg.buf, dtype=np.float64, count=4)
        np.testing.assert_array_equal(raw, [7.0] * 4)
        assert alloc.bytes_reserved == 32
        view = raw = None          # release exports before detaching
        arena.close()

    def test_freed_slots_are_recycled_per_width(self):
        arena = ShmArena()
        seg = arena.create("slab", 1024)
        alloc = SlabAllocator(seg.buf)
        offset, first = alloc.allocate(8)
        _, second = alloc.allocate(8)
        alloc.free(offset, 8)
        again, third = alloc.allocate(8)
        assert again == offset             # recycled, not bumped
        assert alloc.bytes_reserved == 128
        first = second = third = None      # release exports
        arena.close()

    def test_exhaustion_returns_none_instead_of_raising(self):
        arena = ShmArena()
        seg = arena.create("slab", 64)
        alloc = SlabAllocator(seg.buf)
        assert alloc.allocate(8) is not None
        assert alloc.allocate(8) is None   # 64 bytes hold one 8-float row
        assert alloc.allocate(0) is None
        arena.close()


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
    def test_rows_are_placed_in_the_slab(self):
        arena = ShmArena()
        seg = arena.create("part", 4096)
        store = PartialStore(allocator=SlabAllocator(seg.buf))
        cache = store.acquire("fp")
        cache.get_many(np.array([1, 2, 3]), rows_for(4))
        assert store.stats().shm_bytes_resident == 3 * 4 * 8
        assert store.stats().private_bytes_resident == 0
        store.close()
        arena.close()

    def test_publish_header_exports_residency(self):
        arena = ShmArena()
        hdr = arena.create("hdr", header_nbytes(1))
        seg = arena.create("part", 4096)
        header = header_view(hdr.buf, 1)[0]
        store = PartialStore(
            allocator=SlabAllocator(seg.buf), header=header
        )
        cache = store.acquire("fp")
        cache.get_many(np.array([5, 6]), rows_for(3))
        store.publish_header()
        assert header[HDR_FLOATS_RESIDENT] == 6
        header = None
        store.close()
        arena.close()

    def test_armed_store_trims_without_a_local_capacity(self):
        arena = ShmArena()
        seg = arena.create("part", 4096)
        store = PartialStore(
            allocator=SlabAllocator(seg.buf), armed=True
        )
        cache = store.acquire("fp")
        cache.get_many(np.arange(10), rows_for(4))
        evicted = store.trim(12)            # 12 floats = 3 width-4 rows
        assert evicted == 3
        assert store.floats_resident == 10 * 4 - 12
        store.close()
        arena.close()

    def test_a_trimmed_slab_gives_its_block_back(self):
        arena = ShmArena()
        seg = arena.create("part", 16384)
        allocator = SlabAllocator(seg.buf)
        store = PartialStore(allocator=allocator, armed=True)
        first = store.acquire("fp-1")
        first.get_many(np.arange(100), rows_for(4))
        big = allocator.bytes_reserved
        assert big == 100 * 4 * 8
        assert store.trim(90 * 4) == 90     # the slab moves to a small block
        small = allocator.bytes_reserved - big
        assert 10 * 4 * 8 <= small <= 3 * 10 * 4 * 8
        assert store.stats().shm_bytes_resident == 10 * 4 * 8
        np.testing.assert_array_equal(
            first.get_many(np.arange(90, 100), None),
            rows_for(4)(np.arange(90, 100)),
        )
        # ... and the big one is there for the next slab of that size.
        second = store.acquire("fp-2")
        second.get_many(np.arange(100), rows_for(4))
        assert allocator.bytes_reserved == big + small
        assert store.stats().private_bytes_resident == 0
        store.close()
        arena.close()

    def test_unarmed_store_refuses_to_trim(self):
        store = PartialStore()
        with pytest.raises(ModelError, match="armed"):
            store.trim(10)

    def test_close_releases_every_buffer_view(self):
        # An armed store and its caches form a governor reference
        # cycle; close() must break it so the segment's mapping can
        # actually be released (no BufferError at detach time).
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=4096)
        try:
            from repro.fx.shm import ShmSegment

            seg = ShmSegment(shm, owner=False)
            store = PartialStore(
                allocator=SlabAllocator(seg.buf), armed=True,
            )
            cache = store.acquire("fp")
            cache.get_many(np.array([1, 2]), rows_for(4))
            store.close()
            store = cache = seg = None
            shm.close()                    # raises BufferError if leaked
        finally:
            shm.unlink()
