"""Cross-model partial sharing: bytes resident and hit rate.

Two registrations of the same fitted model over the same join — the
blue/green-deploy / A-B-control shape — served from one
:class:`~repro.fx.store.PartialStore` (shared caches) and from one
private store each.  Reported per arm:
resident partial bytes, aggregate hit rate, and wall time, at
unchanged (bit-exact) predictions.

Acceptance: with sharing enabled the two models hold measurably fewer
``bytes_resident`` than 2× a standalone deployment, and their outputs
are identical to the unshared arm's.
"""

import sys
import time
import warnings

import numpy as np

from _payload import write_payload
from repro.bench.experiments import active_scale
from repro.core.api import fit_nn
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.serve.cache import CacheStats
from repro.serve.service import ModelService
from repro.storage.catalog import Database

D_S, D_R = 5, 15
N_H = 32
REQUEST_ROWS = 256
REQUESTS = 40


def _workload(rng, n_s, n_r):
    """A stream of skewed request batches over the stored fact rows."""
    batches = []
    for _ in range(REQUESTS):
        rows = rng.integers(0, n_s, size=REQUEST_ROWS)
        batches.append(np.sort(rows))
    return batches


def _serve_arm(db, spec, nn, *, shared: bool):
    """Push the workload through the model under two names: both
    registered in one service (one store, shared caches), or each in a
    service of its own (a private store per name)."""
    fact = spec.resolve(db).fact
    all_rows = fact.scan()
    features_all = fact.project_features(all_rows)
    fk_all = all_rows[:, fact.schema.fk_position("R1")].astype(np.int64)

    names = ("blue", "green")
    services = [ModelService(db) for _ in (names[:1] if shared else names)]
    serving = {
        name: services[i % len(services)] for i, name in enumerate(names)
    }
    for name, service in serving.items():
        service.register_nn(name, nn, spec)
    rng = np.random.default_rng(17)
    outputs = []
    tick = time.perf_counter()
    for name in names:
        for batch in _workload(rng, features_all.shape[0], None):
            outputs.append(
                serving[name].predict(
                    name, features_all[batch], fk_all[batch]
                )
            )
    elapsed = time.perf_counter() - tick
    stats = [service.store_stats() for service in services]
    for service in services:
        service.close()
    return {
        "outputs": np.concatenate(outputs),
        "bytes": sum(s.bytes_resident for s in stats),
        "hit_rate": sum((s.cache for s in stats), CacheStats()).hit_rate,
        "caches": sum(s.caches for s in stats),
        "seconds": elapsed,
    }


def run_shared_cache_comparison():
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
            unshared = _serve_arm(db, star.spec, nn, shared=False)
            shared = _serve_arm(db, star.spec, nn, shared=True)
    return {"scale": scale.name, "n_s": n_s, "n_r": n_r,
            "unshared": unshared, "shared": shared}


def test_shared_cache_footprint(benchmark, results_dir):
    result = benchmark.pedantic(
        run_shared_cache_comparison, rounds=1, iterations=1
    )
    shared, unshared = result["shared"], result["unshared"]

    # Bit-exact predictions, shared store or private ones.
    np.testing.assert_array_equal(
        shared["outputs"], unshared["outputs"]
    )
    # Acceptance: two same-join models with sharing resident below the
    # sum of their standalone footprints.
    assert shared["bytes"] < unshared["bytes"]
    assert shared["caches"] == 1
    assert unshared["caches"] == 2
    assert shared["hit_rate"] >= unshared["hit_rate"]

    lines = [
        "== cross-model partial sharing: two registrations, one join ==",
        f"{'arm':>9}  {'caches':>6}  {'bytes_resident':>14}  "
        f"{'hit rate':>8}  {'wall (s)':>8}",
    ]
    for arm_name, arm in (("unshared", unshared), ("shared", shared)):
        lines.append(
            f"{arm_name:>9}  {arm['caches']:>6}  {arm['bytes']:>14,}  "
            f"{arm['hit_rate']:>8.1%}  {arm['seconds']:>8.3f}"
        )
    saved = 1 - shared["bytes"] / unshared["bytes"]
    lines.append(
        f"   n_S={result['n_s']}, n_R={result['n_r']}, d_S={D_S}, "
        f"d_R={D_R}, n_h={N_H}; scale={result['scale']}; "
        f"bytes saved by sharing: {saved:.1%} (bit-exact outputs)"
    )
    text = "\n".join(lines)
    sys.__stdout__.write("\n" + text + "\n")
    with open(results_dir / "shared_cache.txt", "w") as handle:
        handle.write(text + "\n")
    # Machine-readable twin: tools/bench_summary.py folds this into
    # the checked-in BENCH_cache.json history.
    write_payload(
        results_dir,
        "shared_cache",
        {
            "scale": result["scale"], "n_s": result["n_s"],
            "n_r": result["n_r"], "d_s": D_S, "d_r": D_R, "n_h": N_H,
        },
        {
            "arms": {
                name: {k: v for k, v in arm.items() if k != "outputs"}
                for name, arm in (
                    ("unshared", unshared), ("shared", shared),
                )
            },
        },
    )
