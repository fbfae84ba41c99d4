"""Tear-free stats regression tests.

These hammer a component from writer threads while a reader thread
snapshots it, asserting cross-field invariants that only hold when the
snapshot is a consistent cut — the bugs these catch looked like
impossible stats (hit counts not matching batch traffic, bytes
resident disagreeing with entry counts) in production dumps.
"""

import threading
import time

import numpy as np

from repro.fx.sharding import ShardedPartialCache
from repro.fx.store import PartialStore
from repro.serve.service import ServingStats
from repro.storage.iostats import IOSnapshot

WIDTH = 2


def rows_for(keys):
    keys = np.asarray(keys, dtype=np.float64)
    return np.column_stack([keys, keys * 10.0])


class TestShardedCacheStats:
    def test_stats_consistent_under_get_many_fire(self):
        cache = PartialStore(capacity_floats=64 * WIDTH).acquire("fp")
        stop = threading.Event()
        failures = []

        keys_per_call = 16

        def writer(seed):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                # Exactly keys_per_call distinct keys per call: each
                # call contributes exactly that many lookups.
                keys = rng.choice(256, size=keys_per_call, replace=False)
                cache.get_many(keys, rows_for)

        def reader():
            while not stop.is_set():
                stats = cache.stats()
                # stats() takes the cache's one lock, which every
                # get_many and governor eviction holds for its whole
                # span, so a snapshot never splits one call's
                # bookkeeping: total lookups stay a multiple of the
                # per-call key count...
                if (stats.hits + stats.misses) % keys_per_call != 0:
                    failures.append(stats)
                # ...and resident bytes always equal entries × row
                # bytes (8 bytes per float, WIDTH floats per row).
                if stats.bytes_resident != stats.entries * WIDTH * 8:
                    failures.append(stats)

        writers = [
            threading.Thread(target=writer, args=(seed,))
            for seed in range(3)
        ]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in writers + readers:
            thread.start()
        try:
            time.sleep(0.4)
        finally:
            stop.set()
            for thread in writers + readers:
                thread.join()
        assert not failures, f"torn snapshots observed: {failures[:3]}"

    def test_final_totals_add_up(self):
        cache = ShardedPartialCache()
        threads = 6
        per_thread = 50
        barrier = threading.Barrier(threads)

        def work(seed):
            barrier.wait()
            rng = np.random.default_rng(seed)
            for _ in range(per_thread):
                cache.get_many(rng.integers(0, 64, size=8), rows_for)

        pool = [
            threading.Thread(target=work, args=(seed,))
            for seed in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        stats = cache.stats()
        # Every requested distinct key was either a hit or a miss.
        assert stats.hits + stats.misses > 0
        assert stats.misses >= stats.entries
        assert stats.bytes_resident == stats.entries * WIDTH * 8


class TestServingStatsSnapshot:
    def test_snapshot_never_tears(self):
        stats = ServingStats()
        rows_per_call = 7
        stop = threading.Event()
        failures = []

        def writer():
            while not stop.is_set():
                stats.record(
                    rows=rows_per_call, seconds=0.001,
                    io=IOSnapshot(pages_read=2),
                )

        def reader():
            while not stop.is_set():
                snap = stats.snapshot()
                if snap.rows != snap.requests * rows_per_call:
                    failures.append((snap.requests, snap.rows))
                if snap.io.pages_read != snap.requests * 2:
                    failures.append((snap.requests, snap.io.pages_read))

        pool = [threading.Thread(target=writer) for _ in range(4)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in pool:
            t.start()
        try:
            time.sleep(0.3)
        finally:
            stop.set()
            for t in pool:
                t.join()
        assert not failures, f"torn ServingStats reads: {failures[:3]}"

    def test_snapshot_is_a_copy(self):
        stats = ServingStats()
        stats.record(rows=3, seconds=0.5)
        snap = stats.snapshot()
        stats.record(rows=3, seconds=0.5)
        assert snap.requests == 1
        assert stats.snapshot().requests == 2
