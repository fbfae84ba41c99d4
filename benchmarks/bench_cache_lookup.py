"""Warm ``get_many`` per batch size: the array-backed shard against the
dict shard it replaced (``tests/serve/reference_cache.py``).

The thread and process runtimes send tiny coalesced batches, the inline
service 2048-row ones; one implementation serves both, so the small end
must not pay for the large one.  Acceptance: at 1–16 keys the array
shard is within 2× of the dict shard, from 256 keys up it is faster.
No history file — run it by name
(``python -m pytest benchmarks/bench_cache_lookup.py -q``).
"""

import time

import numpy as np

from repro.serve.cache import PartialCache
from tests.serve.reference_cache import PartialCache as DictPartialCache

SHARD_ROWS, WIDTH = 20_000, 64
BATCH_SIZES = (1, 4, 16, 256, 2048)


def _best_us(cache, batches, rounds=7) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for keys in batches:
            cache.get_many(keys, None)      # warm: compute is never called
        best = min(best, (time.perf_counter() - start) / len(batches))
    return best * 1e6


def test_small_batches_do_not_pay_for_large_ones(results_dir):
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(SHARD_ROWS, WIDTH))
    shards = {"array": PartialCache(), "dict": DictPartialCache()}
    for cache in shards.values():
        cache.get_many(np.arange(SHARD_ROWS), lambda keys: rows[keys])
    lines = ["== warm get_many, 20k-row shard: µs per call ==",
             f"{'keys':>6} {'array':>9} {'dict':>9} {'array/dict':>11}"]
    for size in BATCH_SIZES:
        batches = [
            np.sort(rng.choice(SHARD_ROWS, size=size, replace=False))
            for _ in range(max(20, 2048 // size))
        ]
        took = {name: _best_us(c, batches) for name, c in shards.items()}
        ratio = took["array"] / took["dict"]
        lines.append(
            f"{size:>6} {took['array']:>9.1f} {took['dict']:>9.1f} {ratio:>11.2f}"
        )
        assert ratio < (2.0 if size <= 16 else 1.0), (size, took)
    (results_dir / "cache_lookup.txt").write_text("\n".join(lines) + "\n")
