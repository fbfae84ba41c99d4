#!/usr/bin/env python3
"""Wall time per arm and a cProfile top-N (by self time) of one e2e-shaped fit.

    PYTHONPATH=src python tools/profile_fit.py gmm --shape rr100 --arm F
    PYTHONPATH=src python tools/profile_fit.py nn --shape rr2 --top 20
    PYTHONPATH=src python tools/profile_fit.py maintain --shape star3

Without ``--arm`` every arm is timed and ``auto`` profiled; each wall is
printed next to the arm's cold-index wall — the same fit with the
database's join index dropped first, so that it pays the recording pass
a star's first fit pays — and the seconds ``auto`` predicted for that
arm (``fit.extra["auto"]["predicted_s"]``; none for an arm the memory
budget rules out), and on the line below the pages each of the two
fits read (``fit.io.pages_read``); a mixture's wall also with its fit's
``estep_seconds`` / ``mstep_seconds`` beside it — the share of the
wall the EM kernels took (see ``GMMFitResult``).  ``maintain``
times the statistics build over the ``--arm`` GMM fit (``repro.maintain``),
one 32-row update of the first dimension and its ``flush()``, prints what
the statistics hold, then the ridge maintainer's build and a from-scratch
``fit_ridge`` (the two arms of ``benchmarks/bench_maintenance.py``'s
refit side), and profiles the GMM cycle.  cProfile taxes Python
calls, not native work: its table says where to look, not how long.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import pstats
import time
import warnings

import numpy as np

import repro
from repro.linear.models import fit_ridge

# Copied from benchmarks/e2e/workloads.SHAPES["full"] / STAR3 and its TRAIN_* /
# SERVE_* configs: n_s, d_s, (rows, width) per dimension, EM iterations, NN (n_h, epochs).
SHAPES = {
    "rr100": (200_000, 5, ((2_000, 15),), 3, (50, 2)),
    "rr2": (200_000, 5, ((100_000, 5),), 3, (50, 2)),
    "star3": (100_000, 5, ((20_000, 15), (500, 10)), 2, (64, 1)),
}
COMPONENTS = 5             # TRAIN_GMM / SERVE_GMM n_components
ARMS = {"F": "factorized", "S": "streaming", "M": "materialized", "auto": "auto"}
UPDATE_ROWS = 32            # serve_update_mix's rows per update


def star_config(shape: str, smoke: bool = False) -> repro.StarSchemaConfig:
    """The star of ``SHAPES[shape]``; ``smoke`` divides it by 100."""
    n_s, d_s, dims, _, _ = SHAPES[shape]
    shrink = 100 if smoke else 1
    dimensions = tuple(
        repro.DimensionSpec(max(rows // shrink, 2), width) for rows, width in dims
    )
    return repro.StarSchemaConfig(
        n_s=n_s // shrink, d_s=d_s, dimensions=dimensions, with_target=True, seed=0
    )


def warm_then_time(calls: dict, reps: int = 1) -> dict:
    """``{name: (seconds, result)}`` for the zero-argument ``calls``:
    each is called once unmeasured (pages, lazy imports), then all are
    timed in turn, ``reps`` rounds, so that a host slowdown lands on
    every arm alike; the fastest wall and the last call's result.
    Calls over one star share the database's join index, so these walls
    price warm-index fits: every pass replays."""
    results = {name: call() for name, call in calls.items()}
    walls = {name: [] for name in calls}
    for _ in range(reps):
        for name, call in calls.items():
            tick = time.perf_counter()
            results[name] = call()
            walls[name].append(time.perf_counter() - tick)
    return {name: (min(walls[name]), results[name]) for name in calls}


def time_cold_index(db, calls: dict) -> dict:
    """``{name: (seconds, result)}`` of one more call each, with ``db``'s
    join index dropped first: the wall of a star's first fit, recording
    pass included."""
    timed = {}
    for name, call in calls.items():
        db._drop_join_index()
        tick = time.perf_counter()
        result = call()
        timed[name] = (time.perf_counter() - tick, result)
    return timed


def profile_maintenance(db, spec, gmm, top: int) -> None:
    """Build, one update → flush, the statistics' size; then the same
    cycle again under the profiler."""
    manual = repro.MaintenancePolicy(refresh="manual")
    relation = db.relation(spec.dimensions[0].relation)
    positions = np.arange(min(UPDATE_ROWS, relation.nrows))
    rows = relation.heap.read_rows(positions)

    def cycle():
        ticks = [time.perf_counter()]
        with repro.maintain(db, "gmm", "gmm", spec, gmm, policy=manual) as maintainer:
            ticks.append(time.perf_counter())
            rows[:, 1:] += 0.1
            db.update_rows(relation.name, positions, rows)
            ticks.append(time.perf_counter())
            maintainer.flush()
            ticks.append(time.perf_counter())
            return np.diff(ticks), maintainer.stats.nbytes

    (built, updated, flushed), held = cycle()
    print(f"maintain(...): {built:.3f} s")
    print(f"update_rows({positions.size}): {updated:.4f} s")
    print(f"flush(): {flushed:.4f} s")
    print(f"stats.nbytes: {held / 2**20:.2f} MiB")

    def ridge_build():
        with repro.maintain(db, "ridge", "linear", spec, policy=manual):
            pass

    ridge = warm_then_time({
        "maintain(linear)": ridge_build,
        "fit_ridge()": functools.partial(fit_ridge, db, spec),
    })
    for name, (seconds, _) in ridge.items():
        print(f"{name}: {seconds:.3f} s")
    profiler = cProfile.Profile()
    profiler.runcall(cycle)
    pstats.Stats(profiler).sort_stats("tottime").print_stats(top)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("gmm", "nn", "maintain"))
    parser.add_argument("--shape", choices=sorted(SHAPES), default="rr100")
    parser.add_argument("--arm", choices=sorted(ARMS))
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--smoke", action="store_true", help="shape / 100")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore", repro.ConvergenceWarning)

    _, _, _, iterations, (hidden, epochs) = SHAPES[args.shape]
    with repro.Database() as db:
        spec = repro.generate_star(db, star_config(args.shape, args.smoke)).spec

        def fit(arm):
            if args.kind != "nn":
                return repro.fit_gmm(db, spec, algorithm=ARMS[arm], n_components=COMPONENTS,
                                     max_iter=iterations, tol=0.0)
            return repro.fit_nn(db, spec, algorithm=ARMS[arm],
                                hidden_sizes=(hidden,), epochs=epochs)

        if args.kind == "maintain":
            profile_maintenance(db, spec, fit(args.arm or "auto"), args.top)
            return
        auto = fit("auto").fit.extra["auto"]
        calls = {
            arm: functools.partial(fit, arm)
            for arm in ([args.arm] if args.arm else ARMS)
        }
        timed = warm_then_time(calls)
        cold = time_cold_index(db, calls)
        for arm, (seconds, result) in timed.items():
            strategy = auto["chosen"] if arm == "auto" else ARMS[arm]
            predicted = auto["predicted_s"].get(strategy)
            kernels = "" if args.kind == "nn" else (
                f"estep {result.fit.estep_seconds:.3f} s, "
                f"mstep {result.fit.mstep_seconds:.3f} s, "
            )
            cold_seconds, cold_result = cold[arm]
            print(f"{arm:>4} ({result.algorithm}): {seconds:.3f} s, {kernels}"
                  f"cold index {cold_seconds:.3f} s, predicted "
                  + ("-" if predicted is None else f"{predicted:.3f} s"))
            print(f"{'':>6}pages read {result.fit.io.pages_read}, "
                  f"cold index {cold_result.fit.io.pages_read}")
        profiler = cProfile.Profile()
        profiler.runcall(fit, args.arm or "auto")
        pstats.Stats(profiler).sort_stats("tottime").print_stats(args.top)


if __name__ == "__main__":
    main()
