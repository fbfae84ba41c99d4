"""Telemetry overhead guard: enabled vs disabled serving, A/B'd.

The observability layer promises near-zero cost when off and small,
bounded cost when on (``docs/observability.md``).  This bench holds it
to that: the same request stream runs through two identically
configured concurrent runtimes — one with ``telemetry=True`` (spans and
collectors live), one with the module-level disabled telemetry (the
components keep their books either way; nothing samples them and no
span opens) — in interleaved rounds so CPU-frequency drift and cache
warmth hit both arms alike.

Acceptance: the enabled arm's wall time stays within
``MAX_OVERHEAD`` (5%) of the disabled arm's — off ÷ on wall time, the
gated ratio, at least ``1 / MAX_OVERHEAD`` — and predictions are
bit-exact between arms.
"""

import sys
import time
import warnings

import numpy as np

from _payload import write_payload
from repro.bench.experiments import active_scale
from repro.core.api import fit_nn, serve_runtime
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.storage.catalog import Database

D_S, D_R = 5, 15
N_H = 32
REQUEST_ROWS = 64
REQUESTS_PER_ROUND = 32
ROUNDS = 6          # interleaved A/B rounds, first round is warmup
MAX_OVERHEAD = 1.05


def _round(runtime, xs, fks):
    """Push one round of point batches through ``runtime``; return
    (wall seconds, stacked outputs)."""
    tick = time.perf_counter()
    futures = [
        runtime.submit("m", xs[i], fks[i])
        for i in range(REQUESTS_PER_ROUND)
    ]
    outputs = [future.result() for future in futures]
    return time.perf_counter() - tick, np.concatenate(outputs)


def run_overhead():
    scale = active_scale()
    n_r = scale.n_r
    n_s = n_r * scale.rr_fixed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with Database() as db:
            star = generate_star(
                db,
                StarSchemaConfig.binary(
                    n_s=n_s, n_r=n_r, d_s=D_S, d_r=D_R,
                    with_target=True, seed=5,
                ),
            )
            nn = fit_nn(
                db, star.spec, hidden_sizes=(N_H,),
                epochs=scale.nn_epochs, seed=1,
            )
            rng = np.random.default_rng(23)
            xs = rng.normal(size=(REQUESTS_PER_ROUND, REQUEST_ROWS, D_S))
            fks = rng.integers(
                0, n_r, size=(REQUESTS_PER_ROUND, REQUEST_ROWS, 1)
            )

            arms = {}
            for name, telemetry in (("off", None), ("on", True)):
                arms[name] = serve_runtime(
                    db, num_workers=2, telemetry=telemetry
                )
                arms[name].register_nn("m", nn, star.spec)

            seconds = {"off": [], "on": []}
            outputs = {}
            try:
                for round_no in range(ROUNDS):
                    # Alternate which arm goes first within the round.
                    order = ("off", "on") if round_no % 2 else ("on", "off")
                    for name in order:
                        elapsed, out = _round(arms[name], xs, fks)
                        if round_no > 0:     # round 0 warms both arms
                            seconds[name].append(elapsed)
                        outputs[name] = out
            finally:
                for runtime in arms.values():
                    runtime.close()
    return {
        "scale": scale.name, "n_s": n_s, "n_r": n_r,
        "off_s": sum(seconds["off"]), "on_s": sum(seconds["on"]),
        "outputs_off": outputs["off"], "outputs_on": outputs["on"],
    }


def test_telemetry_overhead(benchmark, results_dir):
    result = benchmark.pedantic(run_overhead, rounds=1, iterations=1)

    # Telemetry must never change predictions.
    np.testing.assert_array_equal(
        result["outputs_on"], result["outputs_off"]
    )
    ratio = result["off_s"] / result["on_s"]
    assert ratio >= 1 / MAX_OVERHEAD, (
        f"telemetry-enabled serving took {1 / ratio:.3f}x the disabled "
        f"arm's wall time (limit {MAX_OVERHEAD}x)"
    )

    lines = [
        "== telemetry overhead: enabled vs disabled runtime, "
        "interleaved A/B ==",
        f"{'arm':>4}  {'wall (s)':>9}",
        f"{'off':>4}  {result['off_s']:>9.3f}",
        f"{'on':>4}  {result['on_s']:>9.3f}",
        f"   off/on {ratio:.3f} (limit {1 / MAX_OVERHEAD:.3f}); "
        f"{ROUNDS - 1} measured rounds x {REQUESTS_PER_ROUND} requests "
        f"x {REQUEST_ROWS} rows; bit-exact outputs; "
        f"scale={result['scale']}",
    ]
    text = "\n".join(lines)
    sys.__stdout__.write("\n" + text + "\n")
    with open(results_dir / "telemetry_overhead.txt", "w") as handle:
        handle.write(text + "\n")
    write_payload(
        results_dir,
        "telemetry_overhead",
        {"scale": result["scale"], "n_s": result["n_s"],
         "n_r": result["n_r"], "n_h": N_H, "rounds": ROUNDS,
         "requests_per_round": REQUESTS_PER_ROUND,
         "request_rows": REQUEST_ROWS},
        {"off_over_on": ratio},
    )
