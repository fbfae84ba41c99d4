"""Serving throughput: materialized vs factorized inference paths.

The inference twin of the paper's training sweeps: score every fact
tuple of a binary star under both serving strategies across tuple
ratios ``rr = n/m``, report wall-clock throughput plus the inference
cost model's multiplication counts, and verify that the factorized
path multiplies strictly less whenever ``rr ≥ 10`` (the acceptance
regime; the model puts the actual break-even at ``rr ≈ 1``).
"""

import sys
import time
import warnings

from _payload import write_payload
from repro.core.api import fit_gmm, fit_nn, serve
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.fx.costs import serving_cost_model
from repro.storage.catalog import Database

N_S = 20_000
D_S, D_R = 5, 15
N_H = 32
K = 3
TUPLE_RATIOS = (2, 10, 100, 400)
COSTS = {
    "gmm": serving_cost_model(
        "gmm", d_s=D_S, dim_widths=(D_R,), width_param=K
    ),
    "nn": serving_cost_model(
        "nn", d_s=D_S, dim_widths=(D_R,), width_param=N_H
    ),
}


def run_serving_sweep():
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rr in TUPLE_RATIOS:
            n_r = max(N_S // rr, 1)
            with Database() as db:
                star = generate_star(
                    db,
                    StarSchemaConfig.binary(
                        n_s=N_S, n_r=n_r, d_s=D_S, d_r=D_R,
                        with_target=True, seed=5,
                    ),
                )
                gmm = fit_gmm(
                    db, star.spec, n_components=K, max_iter=2, tol=0.0,
                    seed=1,
                )
                nn = fit_nn(
                    db, star.spec, hidden_sizes=(N_H,), epochs=1, seed=1
                )
                service = serve(db)
                service.register_gmm(
                    "gmm-m", gmm, star.spec, strategy="materialized"
                )
                service.register_gmm("gmm-f", gmm, star.spec)
                service.register_nn(
                    "nn-m", nn, star.spec, strategy="materialized"
                )
                service.register_nn("nn-f", nn, star.spec)

                timings = {}
                for name in ("gmm-m", "gmm-f", "nn-m", "nn-f"):
                    tick = time.perf_counter()
                    timings[name] = (
                        service.predict_all(name),
                        time.perf_counter() - tick,
                    )
                # A second factorized pass serves from a warm cache.
                tick = time.perf_counter()
                service.predict_all("nn-f")
                warm_seconds = time.perf_counter() - tick

                # Exactness travels with the benchmark, as in training.
                import numpy as np

                assert np.array_equal(
                    timings["gmm-m"][0], timings["gmm-f"][0]
                )
                assert np.allclose(
                    timings["nn-m"][0], timings["nn-f"][0],
                    rtol=1e-9, atol=1e-9,
                )
                plans = {
                    kind: model.decide(N_S, (n_r,))
                    for kind, model in COSTS.items()
                }
                rows.append(
                    {
                        "rr": rr,
                        "m": n_r,
                        "gmm_m_s": timings["gmm-m"][1],
                        "gmm_f_s": timings["gmm-f"][1],
                        "nn_m_s": timings["nn-m"][1],
                        "nn_f_s": timings["nn-f"][1],
                        "nn_f_warm_s": warm_seconds,
                        "gmm_mults_m": plans["gmm"].dense_mults,
                        "gmm_mults_f": plans["gmm"].factorized_mults,
                        "nn_mults_m": plans["nn"].dense_mults,
                        "nn_mults_f": plans["nn"].factorized_mults,
                    }
                )
    return rows


def test_serving_throughput(benchmark, results_dir):
    rows = benchmark.pedantic(run_serving_sweep, rounds=1, iterations=1)
    lines = [
        "== serving throughput: materialized vs factorized inference ==",
        f"{'rr':>5}  {'GMM M (s)':>10}  {'GMM F (s)':>10}  "
        f"{'NN M (s)':>9}  {'NN F (s)':>9}  {'NN F warm':>9}  "
        f"{'NN mult save':>12}  {'GMM mult save':>13}",
    ]
    for row in rows:
        nn_save = 1 - row["nn_mults_f"] / row["nn_mults_m"]
        gmm_save = 1 - row["gmm_mults_f"] / row["gmm_mults_m"]
        lines.append(
            f"{row['rr']:>5}  {row['gmm_m_s']:>10.3f}  "
            f"{row['gmm_f_s']:>10.3f}  {row['nn_m_s']:>9.3f}  "
            f"{row['nn_f_s']:>9.3f}  {row['nn_f_warm_s']:>9.3f}  "
            f"{nn_save:>11.1%}  {gmm_save:>12.1%}"
        )
        # Acceptance: fewer multiplications at any tuple ratio ≥ 10.
        if row["rr"] >= 10:
            assert row["nn_mults_f"] < row["nn_mults_m"]
            assert row["gmm_mults_f"] < row["gmm_mults_m"]
    lines.append(
        f"   n_S={N_S}, d_S={D_S}, d_R={D_R}, K={K}, n_h={N_H}; "
        "mult counts from repro.fx.costs"
    )
    text = "\n".join(lines)
    sys.__stdout__.write("\n" + text + "\n")
    with open(results_dir / "serving_throughput.txt", "w") as handle:
        handle.write(text + "\n")
    # Machine-readable twin of the table: tools/bench_summary.py folds
    # this into the checked-in BENCH_serving.json history.
    write_payload(
        results_dir,
        "serving_throughput",
        {"n_s": N_S, "d_s": D_S, "d_r": D_R, "k": K, "n_h": N_H},
        {"rows": rows},
    )
