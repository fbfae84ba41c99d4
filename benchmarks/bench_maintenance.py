"""Online maintenance: rank-k statistic deltas vs full refits.

A ``ModelMaintainer`` holds the retained per-dimension sufficient
statistics of a ridge fit over the star.  When a dimension update
lands, the delta path subtracts the touched RIDs' old contributions,
adds their new ones, and re-solves the normal equations — work
proportional to the *touched* rows (times their fact multiplicity),
not the fact table.  The refit arm prices the alternative: a full
``fit_ridge`` pass over the joined data after every cycle.

The sweep drives both arms at three update rates (rows rewritten per
maintenance cycle).  Every cycle also checks the exactness contract —
the delta-maintained weights must match the from-scratch refit over
the post-update database to solver precision — so the speedup is never
bought with drift.

Acceptance: at every swept update rate the delta path is at least
DELTA_SPEEDUP_MIN (5×) faster than the full refit.  Gated ratio: the
minimum over update rates of refit ÷ delta wall time.

Run standalone:  PYTHONPATH=src python benchmarks/bench_maintenance.py
"""

import sys
import time
import warnings
from pathlib import Path

import numpy as np

from _payload import write_payload
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.linear.models import fit_ridge
from repro.maintain import MaintenancePolicy, ModelMaintainer
from repro.storage.catalog import Database

N_R = 2000
TUPLE_RATIO = 12                 # n_s = 24_000 fact rows
D_S, D_R = 4, 8
UPDATE_ROWS = (2, 16, 128)       # dimension rows rewritten per cycle
CYCLES = 4                       # timed maintenance cycles per rate
ALPHA = 1e-3
DELTA_SPEEDUP_MIN = 5.0
PARITY_RTOL = 1e-8


def _update_dimension(db, relation_name, rng, count):
    """Rewrite ``count`` dimension rows in place (keys fixed)."""
    relation = db.relation(relation_name)
    rows = relation.scan()
    positions = rng.choice(rows.shape[0], size=count, replace=False)
    replacement = rows[positions].copy()
    replacement[:, 1:] += rng.normal(
        scale=0.2, size=replacement[:, 1:].shape
    )
    db.update_rows(relation_name, positions, replacement)


def _rate_point(db, spec, rows_per_cycle, rng):
    """Both arms over CYCLES update cycles at one rate.

    The maintainer runs ``refresh='manual'`` so ``flush()`` is exactly
    the delta work (subtract/add the touched statistics, re-solve);
    the refit arm prices a from-scratch ``fit_ridge`` over the same
    post-update database — which is also the parity oracle.
    """
    dim = spec.dimensions[0].relation
    delta_s = refit_s = 0.0
    with ModelMaintainer(
        db, "bench", "linear", spec, alpha=ALPHA,
        policy=MaintenancePolicy(refresh="manual"),
    ) as maintainer:
        for _ in range(CYCLES):
            _update_dimension(db, dim, rng, rows_per_cycle)

            tick = time.perf_counter()
            maintainer.flush()
            delta_s += time.perf_counter() - tick

            tick = time.perf_counter()
            oracle = fit_ridge(db, spec, alpha=ALPHA)
            refit_s += time.perf_counter() - tick

            np.testing.assert_allclose(
                maintainer.model.weights, oracle.weights,
                rtol=PARITY_RTOL,
            )
            np.testing.assert_allclose(
                maintainer.model.intercept, oracle.intercept,
                rtol=PARITY_RTOL,
            )
    return {
        "rows": rows_per_cycle,
        "delta_s": delta_s,
        "refit_s": refit_s,
        "speedup": refit_s / delta_s,
    }


def run_maintenance():
    rng = np.random.default_rng(7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with Database() as db:
            star = generate_star(
                db,
                StarSchemaConfig.binary(
                    n_s=N_R * TUPLE_RATIO, n_r=N_R, d_s=D_S, d_r=D_R,
                    with_target=True, seed=5,
                ),
            )
            points = [
                _rate_point(db, star.spec, rows, rng)
                for rows in UPDATE_ROWS
            ]
    return {"points": points}


def _check(result):
    points = result["points"]
    speedups = [point["speedup"] for point in points]
    # The headline claim: applying the rank-k delta beats refitting by
    # at least DELTA_SPEEDUP_MIN at every swept rate.  (No monotone-
    # shape assertion: below ~100 touched rows the delta cost is
    # dominated by the fixed re-solve, so adjacent small rates differ
    # only by timer jitter.)
    for point in points:
        assert point["speedup"] >= DELTA_SPEEDUP_MIN, (
            f"delta speedup {point['speedup']:.1f}x at "
            f"{point['rows']} rows/cycle, need >= "
            f"{DELTA_SPEEDUP_MIN}x"
        )


def _emit(result, results_dir: Path) -> str:
    points = result["points"]
    lines = [
        "== online maintenance: rank-k delta apply vs full refit "
        "(ridge) ==",
        f"{'rows/cycle':>10}  {'delta (s)':>9}  {'refit (s)':>9}  "
        f"{'speedup':>8}",
    ]
    for point in points:
        lines.append(
            f"{point['rows']:>10}  {point['delta_s']:>9.4f}  "
            f"{point['refit_s']:>9.4f}  {point['speedup']:>7.1f}x"
        )
    lines.append(
        f"   n_S={N_R * TUPLE_RATIO:,}, n_R={N_R:,}, d_S={D_S}, "
        f"d_R={D_R}; {CYCLES} cycles per rate; weights match the "
        f"refit oracle to rtol={PARITY_RTOL:g} every cycle"
    )
    text = "\n".join(lines)
    with open(results_dir / "maintenance.txt", "w") as handle:
        handle.write(text + "\n")
    write_payload(
        results_dir,
        "maintenance",
        {
            "n_s": N_R * TUPLE_RATIO, "n_r": N_R,
            "d_s": D_S, "d_r": D_R,
            "cycles": CYCLES, "alpha": ALPHA,
        },
        {"min_refit_over_delta": min(p["speedup"] for p in points)},
    )
    return text


def test_maintenance_delta_vs_refit(benchmark, results_dir):
    result = benchmark.pedantic(run_maintenance, rounds=1, iterations=1)
    _check(result)
    text = _emit(result, results_dir)
    sys.__stdout__.write("\n" + text + "\n")


if __name__ == "__main__":
    outcome = run_maintenance()
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    print(_emit(outcome, results_dir))
    _check(outcome)
    print(f"acceptance ok: delta >= {DELTA_SPEEDUP_MIN:.0f}x at every rate")
