#!/usr/bin/env python3
"""Where a request's time goes in the serving runtime: one closed-loop window, taken apart.

    PYTHONPATH=src python tools/profile_runtime.py
    PYTHONPATH=src python tools/profile_runtime.py --executor process --top 20
    PYTHONPATH=src python tools/profile_runtime.py --executor process --rate 300
    PYTHONPATH=src python tools/profile_runtime.py --inline --top 25

Runs ``runtime_thread_window``'s shape — 64 requests of 1 / 4 / 16 rows
outstanding against 2 workers, ``max_wait_ms=2.0`` — three times over:
bare (window wall against ``time.process_time()``: the difference is
idle, the time every thread spent waiting; and that CPU split between
the submitting thread and the dispatcher threads), with timers around the
per-request calls (a batch timeline and µs per request), and under
cProfile (the submitting thread, and each dispatcher through a wrapped
``_worker_loop``).  cProfile is per thread, so the dispatchers can only be
profiled from their start: that pass runs on a second runtime, and the
first one runs no profiler at all.  The timers and cProfile tax Python
calls, not native work: their tables say where to look; only the bare
window says how long.  With ``--executor process`` the CPU is the
parent's alone and ``execute`` includes the wait for the worker processes.

``--rate R`` runs ``runtime_process_open``'s window instead: 16 / 64 /
256-row requests sent open-loop, ``1 / R`` seconds apart, for 1.2 s (after
one such window of warm-up), and prints the latency p50 / p99 from each
request's scheduled send, the queue-wait p50 (claim minus stamp, as the
e2e tracer reads it), the batches and their close reasons.

Both runtime windows end with each process's peak RSS, ``VmHWM`` from
``/proc/<pid>/status``: this process's, and with ``--executor process``
each worker's and the sum (which counts the pages a worker shares with
this process once per process).  It is read before the runtime closes,
after the data set was built and the network fitted in this process.

``--inline`` runs ``serve_batch_warm``'s window instead, on no runtime at
all: a ``repro.serve(db)`` service with every RID warm, one caller sending
60 requests of 2,048 rows, network and mixture alternating.  It prints the
bare window's wall and rows/s, the same window with timers around the
layers a warm request crosses (dedup plan, cache lookup, gather, the GMM
kernel, the network's head and the sigmoid inside it) in ms per window,
and a cProfile of one warm window.  ``--window`` picks another e2e
serving window for ``--inline``, one that rebuilds partials, and adds the
rebuild's layers to the split (the dimension lookup, its buffer-pool row
read, the mixture's partial builder):

* ``update_mix`` (``serve_update_mix``): 6 cycles of 5 reads of 2,048
  rows, a 32-row in-place update of R1, a maintainer flush (which swaps in
  new mixture parameters, so every mixture partial is rebuilt) and one
  32-row probe per model; the update and the flush get rows of their own,
  and a second table gives the window's page I/O wherever it runs (the
  heap's ``update_rows`` and ``read_rows``, the pool's ``get_page``), in
  ms and calls per window;
* ``budget_tiered`` (``serve_budget_tiered``): 400 requests of 256 rows
  with Zipf(0.9) R1 keys on a service under a 16 MiB budget with the
  float32 + spill ladder, warmed with 200 such requests; each window
  draws fresh requests, so its misses are the tail RIDs it meets for
  the first time (and any the governor dropped).  A second table gives
  the store governor's budget checks, ``PartialStore.enforce_budget``,
  in ms and calls per window: one per request that missed or promoted.

    PYTHONPATH=src python tools/profile_runtime.py --inline --window update_mix
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import pstats
import threading
import time
import warnings
from collections import defaultdict
from concurrent.futures import Future
from unittest import mock

import numpy as np
from profile_fit import COMPONENTS, SHAPES

import repro
from repro.fx.dedup import DedupPlan, DimensionDedup
from repro.fx.store import PartialStore
from repro.maintain.maintainer import ModelMaintainer
from repro.nn.activations import Sigmoid
from repro.nn.network import MLP
from repro.runtime.queue import RequestQueue
from repro.runtime.service import ServingRuntime
from repro.serve import predictor
from repro.serve.cache import PartialCache
from repro.serve.core import RegisteredModel
from repro.serve.partials import DimensionLookup, GMMPartialBuilder
from repro.serve.service import ModelService
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Database
from repro.storage.heapfile import HeapFile

STAR3 = SHAPES["star3"]
# Copied from benchmarks/e2e/workloads.SHAPES["full"]["runtime_thread_window"]
# / _Runtime.setup.
SIZES, OUTSTANDING, REQUESTS = (1, 4, 16), 64, 2500
# Copied from benchmarks/e2e/workloads.SHAPES["full"]["runtime_process_open"].
OPEN_SIZES, OPEN_SECONDS = (16, 64, 256), 1.2
# Copied from benchmarks/e2e/workloads.SHAPES["full"]["serve_batch_warm"].
INLINE_ROWS, INLINE_REQUESTS = 2048, 60
# Copied from benchmarks/e2e/workloads.SHAPES["full"]: the windows that rebuild.
UPDATE_MIX = dict(request_rows=2048, reads_per_cycle=5, update_rows=32,
                  cycles_per_window=6, update_noise=0.5)
BUDGET_TIERED = dict(request_rows=256, requests_per_window=400, warm_requests=200,
                     budget_bytes=16 << 20, zipf=0.9)
RUNTIME = dict(num_workers=2, max_wait_ms=2.0)
# (owner, attribute, depth): the layers of an inline request, a row nested
# in the one above it when deeper.
LAYERS = (
    (ModelService, "predict", 1), (DedupPlan, "for_batch", 2),
    (PartialCache, "get_many", 2), (DimensionDedup, "gather", 2),
    (predictor, "posteriors", 2), (MLP, "forward_from_first_preactivation", 2),
    (Sigmoid, "__call__", 3),
)
# What a cache miss runs inside get_many: a partial rebuild.
REBUILD = (
    (DimensionLookup, "features_for", 3), (BufferPool, "read_rows", 4),
    (GMMPartialBuilder, "compute", 3),
)
# The page I/O an update cycle can run, wherever it runs: the heap's
# read-modify-write, row reads from disk around the pool, the pool's
# one-page misses.
PAGE_IO = ((HeapFile, "update_rows"), (HeapFile, "read_rows"), (BufferPool, "get_page"))
# The store's budget check, run after a batch that inserted or promoted rows.
GOVERNOR = ((PartialStore, "enforce_budget"),)
TIMELINE = 20               # batches shown


def clocks(runtime) -> tuple[float, float, float, float]:
    """Wall, process CPU, this thread's CPU and the dispatchers' CPU (s)."""
    dispatchers = sum(
        time.clock_gettime(time.pthread_getcpuclockid(thread.ident))
        for thread in runtime._workers
    )
    return time.perf_counter(), time.process_time(), time.thread_time(), dispatchers


def window(runtime, requests) -> tuple[float, float, float, float]:
    """One closed-loop window submitted from this thread; the seconds of
    :func:`clocks` it took."""
    slots = threading.Semaphore(OUTSTANDING)
    futures = []
    start = clocks(runtime)
    for x, fks in requests:
        slots.acquire()
        future = runtime.submit("nn", x, fks)
        future.add_done_callback(lambda _: slots.release())
        futures.append(future)
    for future in futures:
        future.result(60.0)
    return tuple(end - begin for begin, end in zip(start, clocks(runtime)))


def open_window(runtime, requests, rate) -> np.ndarray:
    """Submit ``requests`` from this thread ``1 / rate`` seconds apart,
    whatever the replies do; each one's seconds from its scheduled send
    to its reply."""
    interval, done = 1.0 / rate, [0.0] * len(requests)
    replied = threading.Semaphore(0)

    def finish(i):
        done[i] = time.perf_counter()
        replied.release()

    start = time.perf_counter() + 0.002
    for i, (x, fks) in enumerate(requests):
        remaining = start + i * interval - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)
        runtime.submit("nn", x, fks).add_done_callback(lambda _, i=i: finish(i))
    for _ in requests:
        assert replied.acquire(timeout=60.0), "a request never replied"
    return np.asarray(done) - (start + interval * np.arange(len(requests)))


def queue_waits(waits):
    """Patch ``take_batch`` to log each claimed request's queue wait."""
    inner = RequestQueue.take_batch

    def take_batch(queue, max_rows, max_wait):
        batch = inner(queue, max_rows, max_wait)
        if batch is not None:
            now = time.perf_counter()
            waits.extend(now - request.enqueued_at for request in batch)
        return batch

    return mock.patch.object(RequestQueue, "take_batch", take_batch)


def closed_by(before, after) -> dict:
    """Batches per close reason between two ``runtime_stats()``."""
    return {reason: count - before.batch_close_reasons[reason]
            for reason, count in after.batch_close_reasons.items()}


def peak_rss(runtime) -> None:
    """Print ``VmHWM`` of this process and of each worker process."""
    def vm_hwm_mib(pid="self"):
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError(f"no VmHWM for {pid}")

    parent = vm_hwm_mib()
    workers = [vm_hwm_mib(handle.process.pid)
               for handle in getattr(runtime._executor, "workers", ())]
    line = f"peak RSS (VmHWM): parent {parent:.1f} MiB"
    if workers:
        line += (f", workers {', '.join(f'{mib:.1f}' for mib in workers)} MiB, "
                 f"sum {parent + sum(workers):.1f} MiB")
    print(line)


def report_open(runtime, requests, rate) -> None:
    """One paced window: latency, queue wait, batches and why they closed."""
    waits = []
    before = runtime.runtime_stats()
    with queue_waits(waits):
        latency_ms = open_window(runtime, requests, rate) * 1e3
    after = runtime.runtime_stats()
    print(f"open loop: {len(requests)} requests at {rate:g}/s")
    print(f"latency from scheduled send: p50 {np.percentile(latency_ms, 50):.2f} ms, "
          f"p99 {np.percentile(latency_ms, 99):.2f} ms")
    print(f"queue wait: p50 {np.percentile(waits, 50) * 1e3:.2f} ms")
    print(f"batches: {after.batches - before.batches}, closed by {closed_by(before, after)}")
    peak_rss(runtime)


def timed(owner, name, totals, calls=None):
    """Patch ``owner.name`` with a wrapper adding its seconds to ``totals``
    (and one to ``calls``, if given)."""
    inner, key = getattr(owner, name), f"{owner.__name__}.{name}"

    def wrapper(*args, **kwargs):
        tick = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            totals[key] += time.perf_counter() - tick
            if calls is not None:
                calls[key] += 1

    return mock.patch.object(owner, name, wrapper)


def timeline(batches):
    """Patch ``take_batch`` to log each batch's size, first and last stamp,
    its return and (filled in by the next call on that worker) its execute
    end.  A batch a worker was already waiting for goes unlogged."""
    inner, running = RequestQueue.take_batch, threading.local()

    def take_batch(queue, max_rows, max_wait):
        now = time.perf_counter()
        if getattr(running, "batch", None):
            running.batch.append(now)
        batch = inner(queue, max_rows, max_wait)
        if batch is not None:
            stamps = [request.enqueued_at for request in batch]
            running.batch = [len(batch), min(stamps), max(stamps), time.perf_counter()]
            batches.append(running.batch)
        return batch

    return mock.patch.object(RequestQueue, "take_batch", take_batch)


def report(runtime, requests) -> None:
    """The bare window, then the same window with the timers on."""
    rows = sum(x.shape[0] for x, _ in requests)
    before = runtime.runtime_stats()
    wall, cpu, submitter, dispatchers = window(runtime, requests)
    after = runtime.runtime_stats()
    batches = after.batches - before.batches
    print(f"window: wall {wall:.3f} s, process CPU {cpu:.3f} s, "
          f"idle {max(0.0, 1 - cpu / wall):.0%}; {rows / wall:,.0f} rows/s")
    for name, seconds in (("submitter thread", submitter),
                          (f"{len(runtime._workers)} dispatcher thread(s)", dispatchers)):
        print(f"CPU, {name}: {seconds:.3f} s, "
              f"{seconds / len(requests) * 1e6:.1f} µs per request")
    print(f"batches: {batches}, mean rows {rows / batches:.0f}, "
          f"closed by {closed_by(before, after)}")
    peak_rss(runtime)

    totals, log = defaultdict(float), []
    timers = (          # (owner, name, inside the row above)
        (ServingRuntime, "submit", False), (RegisteredModel, "admit", True),
        (RequestQueue, "put", True), (ServingRuntime, "_execute", False),
        (type(runtime._executor), "execute", True), (Future, "set_result", True),
    )
    with contextlib.ExitStack() as patched:
        patched.enter_context(timeline(log))
        for owner, name, _ in timers:
            patched.enter_context(timed(owner, name, totals))
        start = time.perf_counter()
        wall, cpu, _, _ = window(runtime, requests)
    print(f"\nfirst {TIMELINE} batches, ms from the window's start "
          f"(timers on: wall {wall:.3f} s)")
    print("requests first-stamp last-stamp take_batch-returns execute-ends")
    for size, *times in log[:TIMELINE]:
        print(f"{size:8d}  " + "  ".join(f"{(t - start) * 1e3:8.2f}" for t in times))
    print("\nµs per request (indented rows are inside the row above;"
          " set_result runs the done callbacks)")
    for owner, name, inside in timers:
        label = f"{'  ' * inside}{owner.__name__}.{name}"
        seconds = totals[f"{owner.__name__}.{name}"]
        print(f"{label:<32}{seconds / len(requests) * 1e6:8.1f}")
    rest = cpu - totals["ServingRuntime.submit"] - totals["ServingRuntime._execute"]
    print(f"{'the rest of process CPU':<32}{rest / len(requests) * 1e6:8.1f}"
          "   (take_batch, this tool's loop)")


def serve_window(service, requests) -> float:
    """Serve ``requests`` one after another from this thread; the seconds."""
    start = time.perf_counter()
    for model, x, fks in requests:
        service.predict(model, x, fks)
    return time.perf_counter() - start


def report_inline(title, draw, run, layers, top, tables=()) -> None:
    """The bare window, the layer split (then, for each ``(what, rows)``
    of ``tables``, those rows timed and counted wherever they run) and a
    cProfile of one window: ``draw()`` makes a window's inputs,
    ``run(inputs)`` serves them and returns ``(wall, rows)``."""
    wall, rows = run(draw())
    print(f"inline: {title}")
    print(f"window: wall {wall:.4f} s; {rows / wall:,.0f} rows/s")
    totals, calls, inputs = defaultdict(float), defaultdict(int), draw()
    with contextlib.ExitStack() as patched:
        counted = [row for _, rows in tables for row in rows]
        for owner, name in [layer[:2] for layer in layers] + counted:
            patched.enter_context(timed(owner, name, totals, calls))
        wall, _ = run(inputs)
    print(f"\nms per window (timers on: wall {wall:.4f} s; indented rows are "
          "inside the row above)")
    inside = 0.0
    for owner, name, depth in layers:
        seconds = totals[f"{owner.__name__}.{name}"]
        inside += seconds if depth == 2 else 0.0
        label = f"{'  ' * (depth - 1)}{owner.__name__.rsplit('.', 1)[-1]}.{name}"
        print(f"{label:<40}{seconds * 1e3:8.2f}")
    rest = totals["ModelService.predict"] - inside
    print(f"{'  the rest of predict':<40}{rest * 1e3:8.2f}   (first-layer GEMM, "
          "request checks, bookkeeping)")
    for what, rows in tables:
        print(f"\nms per window of {what}, wherever it runs (calls per window)")
        for owner, name in rows:
            key = f"{owner.__name__}.{name}"
            print(f"{key:<40}{totals[key] * 1e3:8.2f}   ({calls[key]} calls)")
    profiler, inputs = cProfile.Profile(), draw()
    profiler.runcall(run, inputs)
    print("\ncProfile, one warm window")
    pstats.Stats(profiler).sort_stats("tottime").print_stats(top)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--executor", choices=("thread", "process"), default="thread")
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--smoke", action="store_true",
                        help="shape / 100, requests / 10 (/ 4 with --rate)")
    parser.add_argument("--rate", type=float, help="requests/s: run the paced open-loop "
                        "window instead of the closed-loop one")
    parser.add_argument("--inline", action="store_true", help="run serve_batch_warm's "
                        "window on a repro.serve(db) service instead (rows / 32 "
                        "and requests / 3 with --smoke)")
    parser.add_argument("--window", choices=("batch_warm", "update_mix", "budget_tiered"),
                        default="batch_warm", help="the e2e serving window --inline runs")
    args = parser.parse_args(argv)
    if args.rate is not None and args.rate <= 0:
        parser.error("--rate must be positive")
    if args.inline and (args.rate is not None or args.executor != "thread"):
        parser.error("--inline runs no runtime: no --rate or --executor")
    if args.window != "batch_warm" and not args.inline:
        parser.error("--window picks the --inline window")
    warnings.simplefilter("ignore", repro.ConvergenceWarning)

    n_s, d_s, dims, _, (hidden, epochs) = STAR3
    shrink = 100 if args.smoke else 1
    dim_rows = [max(rows // shrink, 2) for rows, _ in dims]
    config = repro.StarSchemaConfig(
        n_s=n_s // shrink, d_s=d_s, with_target=True, seed=0,
        dimensions=tuple(
            repro.DimensionSpec(rows, width) for rows, (_, width) in zip(dim_rows, dims)
        ),
    )
    rng = np.random.default_rng(0)
    if args.rate is None:
        sizes, count = SIZES, REQUESTS // (10 if args.smoke else 1)
    else:
        sizes = OPEN_SIZES
        count = max(1, round(args.rate * OPEN_SECONDS / (4 if args.smoke else 1)))
    requests = [
        (rng.normal(size=(rows, d_s)), [rng.integers(0, n, size=rows) for n in dim_rows])
        for rows in rng.choice(sizes, size=count).tolist()
    ]
    profilers = []
    worker_loop = ServingRuntime._worker_loop

    def profiled_loop(runtime, worker_id):
        profiler = cProfile.Profile()
        profilers.append(profiler)
        profiler.runcall(worker_loop, runtime, worker_id)

    with repro.Database() as db:
        spec = repro.generate_star(db, config).spec
        nn = repro.fit_nn(db, spec, hidden_sizes=(hidden,), epochs=epochs)
        if args.inline:
            inline(db, spec, nn, dim_rows, d_s, args)
            return

        @contextlib.contextmanager
        def warm_runtime():
            """A runtime with every RID warm, as the bench's, and one window run."""
            with repro.serve_runtime(db, executor=args.executor, **RUNTIME) as runtime:
                runtime.register_nn("nn", nn, spec)
                rids = np.arange(dim_rows[0])
                for part in np.array_split(rids, max(1, rids.size // 2048)):
                    runtime.predict("nn", np.zeros((part.size, d_s)),
                                    [part % n for n in dim_rows], timeout=60.0)
                if args.rate is None:
                    window(runtime, requests)
                else:
                    open_window(runtime, requests, args.rate)
                yield runtime

        if args.rate is not None:
            with warm_runtime() as runtime:
                report_open(runtime, requests, args.rate)
            return
        with warm_runtime() as runtime:
            report(runtime, requests)
        with mock.patch.object(ServingRuntime, "_worker_loop", profiled_loop), \
                warm_runtime() as runtime:
            for profiler in profilers:              # the warm-up: drop it
                profiler.clear()
            submitter = cProfile.Profile()
            submitter.runcall(window, runtime, requests)
        print("\ncProfile, the submitting thread")
        pstats.Stats(submitter).sort_stats("tottime").print_stats(args.top)
        print(f"cProfile, the {len(profilers)} dispatcher thread(s)")
        pstats.Stats(*profilers).sort_stats("tottime").print_stats(args.top)


def inline(db, spec, nn, dim_rows, d_s, args) -> None:
    """An e2e serving window (``args.window``) on a ``repro.serve(db)``."""
    _, _, _, iterations, _ = STAR3
    gmm = repro.fit_gmm(db, spec, n_components=COMPONENTS, max_iter=iterations, tol=0.0)
    rng = np.random.default_rng(0)

    def draw(count, rows, keys=None):
        """``count`` requests of ``rows`` rows, network and mixture
        alternating; R1's keys from ``keys(rows)`` if given."""
        requests = []
        for i in range(count):
            x = rng.normal(size=(rows, d_s))
            fks = [rng.integers(0, n, size=rows) for n in dim_rows]
            if keys is not None:
                fks[0] = keys(rows)
            requests.append((("nn", "gmm")[i % 2], x, fks))
        return requests

    def run(service, requests):
        return serve_window(service, requests), sum(x.shape[0] for _, x, _ in requests)

    budget = None
    if args.window == "budget_tiered":
        c = BUDGET_TIERED
        budget = c["budget_bytes"] // (100 if args.smoke else 1)
    service = repro.serve(db, memory_budget=budget,
                          store_tiers=("float32", "spill") if budget else ())
    try:
        service.register_nn("nn", nn, spec)
        service.register_gmm("gmm", gmm, spec)
        if args.window == "budget_tiered":
            weights = np.arange(1, dim_rows[0] + 1, dtype=np.float64) ** -c["zipf"]
            weights /= weights.sum()
            order = rng.permutation(dim_rows[0])

            def zipf(rows):
                return order[rng.choice(dim_rows[0], size=rows, p=weights)]

            rows = c["request_rows"] // (32 if args.smoke else 1)
            count = c["requests_per_window"] // (3 if args.smoke else 1)
            serve_window(service, draw(c["warm_requests"] // (3 if args.smoke else 1),
                                       rows, zipf))
            report_inline(
                f"{count} requests of {rows} rows, Zipf({c['zipf']}) R1 keys, a "
                f"{budget / 2**20:g} MiB budget over float32 + spill",
                lambda: draw(count, rows, zipf), lambda requests: run(service, requests),
                LAYERS[:3] + REBUILD + LAYERS[3:], args.top,
                (("the store's governor", GOVERNOR),),
            )
            return
        rids = np.arange(max(dim_rows))
        for model in ("nn", "gmm"):
            service.predict(model, np.zeros((rids.size, d_s)), [rids % n for n in dim_rows])
        if args.window == "update_mix":
            update_mix(db, spec, gmm, service, draw, dim_rows, d_s, args)
            return
        rows = INLINE_ROWS // (32 if args.smoke else 1)
        requests = draw(INLINE_REQUESTS // (3 if args.smoke else 1), rows)
        serve_window(service, requests)
        report_inline(f"{len(requests)} requests of {rows} rows, nn and gmm alternating",
                      lambda: requests, lambda requests: run(service, requests),
                      LAYERS, args.top)
    finally:
        service.close()


def update_mix(db, spec, gmm, service, draw, dim_rows, d_s, args) -> None:
    """``serve_update_mix``'s cycles: reads, an in-place R1 update, the
    maintainer's flush (a parameter swap: every mixture partial goes) and
    one probe per model at the updated keys."""
    c = UPDATE_MIX
    rows = c["request_rows"] // (32 if args.smoke else 1)
    cycles = c["cycles_per_window"] // (3 if args.smoke else 1)
    relation = db.relation(spec.dimensions[0].relation)
    maintainer = repro.maintain(db, "gmm", "gmm", spec, gmm,
                                policy=repro.MaintenancePolicy(refresh="manual"),
                                targets=(service,))
    rng = np.random.default_rng(1)

    def draw_cycles():
        table = relation.scan()                 # the rows as they are now
        out = []
        for _ in range(cycles):
            rids = rng.choice(dim_rows[0], size=c["update_rows"], replace=False)
            positions = relation.positions_of_keys(rids)
            new = table[positions].copy()
            new[:, 1:] += rng.normal(scale=c["update_noise"], size=new[:, 1:].shape)
            table[positions] = new
            probes = [(model, rng.normal(size=(rids.size, d_s)),
                       [rids] + [rng.integers(0, n, size=rids.size) for n in dim_rows[1:]])
                      for model in ("nn", "gmm")]
            out.append((draw(c["reads_per_cycle"], rows), positions, new, probes))
        return out

    def run(inputs):
        wall = served = 0
        for reads, positions, new, probes in inputs:
            start = time.perf_counter()
            serve_window(service, reads)
            db.update_rows(relation.name, positions, new)
            assert maintainer.flush(), "the flush applied nothing"
            serve_window(service, probes)
            wall += time.perf_counter() - start
            served += sum(x.shape[0] for _, x, _ in reads + probes)
        return wall, served

    try:
        run(draw_cycles())
        report_inline(
            f"{cycles} cycles of {c['reads_per_cycle']} reads of {rows} rows, a "
            f"{c['update_rows']}-row R1 update, a flush and 2 probes",
            draw_cycles, run,
            ((Database, "update_rows", 1), (ModelMaintainer, "flush", 1))
            + LAYERS[:3] + REBUILD + LAYERS[3:], args.top, (("page I/O", PAGE_IO),),
        )
    finally:
        maintainer.close()


if __name__ == "__main__":
    main()
