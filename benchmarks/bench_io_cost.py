"""Section V-A ablation: measured page I/O versus the analytic model,
including the M-vs-S BlockSize crossover.

Section V-A's S- count rescans ``S`` once per outer block on every pass.
Since a replayed pass scans ``S`` once per group of outer blocks whose
fact rows fit the buffer pool, the crossover is measured in a database
whose pool holds less than two blocks' fact rows (one page), where every
pass reads the paper's count; a second S column shows what the same S-
fit reads at the default pool, where a replay reads ``|R| + |S|``."""

import sys
import warnings

from repro.core.training import train
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.fx.costs import (
    TrainingPageProfile,
    streaming_wins_block_size,
    training_cost_model,
)
from repro.gmm.base import EMConfig
from repro.storage.catalog import Database

ONE_BLOCK_POOL = 1          # pages: no two outer blocks' fact rows fit
DEFAULT_POOL = 1024         # Database()'s default buffer pool


def run_io_crossover():
    """Measure M-GMM vs S-GMM page I/O across block sizes and compare
    with the closed-form crossover; then S-GMM again at the default
    pool."""
    iterations = 3
    rows = []
    star_config = StarSchemaConfig.binary(
        n_s=1500, n_r=64, d_s=3, d_r=6, seed=3
    )
    with Database(page_size_bytes=512, buffer_pages=ONE_BLOCK_POOL) as db, \
            Database(page_size_bytes=512, buffer_pages=DEFAULT_POOL) as pooled:
        star = generate_star(db, star_config)
        generate_star(pooled, star_config)
        config = EMConfig(
            n_components=2, max_iter=iterations, tol=0.0, seed=1,
            init_sample_size=10**9,
        )
        pages_r = db["R1"].npages
        pages_s = db["S"].npages
        pages_t = None
        model = training_cost_model(
            "gmm", d_s=3, dim_widths=(6,), width_param=2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for block_pages in (2, 4, 8, 16, 64):
                db.reset_stats()
                m = train(db, star.spec, "gmm", "M", config,
                          block_pages=block_pages)
                pages_t = m.extra["table_pages"]
                m_total = m.io.pages_read + m.io.pages_written
                db.reset_stats()
                s = train(db, star.spec, "gmm", "S", config,
                          block_pages=block_pages)
                s_total = s.io.pages_read + s.io.pages_written
                profile, pooled_profile = (
                    TrainingPageProfile(
                        fact_pages=pages_s, dim_pages=(pages_r,),
                        joined_pages=pages_t, block_pages=block_pages,
                        budget_pages=budget,
                    )
                    for budget in (ONE_BLOCK_POOL, DEFAULT_POOL)
                )
                # Both predictions add one extra pass feeding parameter
                # initialization (a read of T for M, a join pass for S).
                # S replays the index M's join pass recorded; at this
                # pool a replay reads what a recording pass reads.
                predicted_m = model.materialized_io_pages(
                    profile, iterations
                ) + pages_t
                predicted_s = model.streaming_io_pages(
                    profile, iterations
                ) + profile.join_pass_pages()
                # At the default pool: a cold S fit, whose sample pass
                # records and whose EM passes replay.
                pooled.reset_stats()
                s_pooled = train(pooled, star.spec, "gmm", "S", config,
                                 block_pages=block_pages)
                predicted_pooled = model.streaming_io_pages(
                    pooled_profile, iterations
                ) + pooled_profile.replayed_pass_pages()
                rows.append(
                    (block_pages, m_total, predicted_m, s_total,
                     predicted_s, s_pooled.io.pages_read, predicted_pooled)
                )
        crossover = streaming_wins_block_size(
            pages_r, pages_s, pages_t, iterations
        )
    return rows, crossover


def test_io_crossover(benchmark, results_dir):
    rows, crossover = benchmark.pedantic(
        run_io_crossover, rounds=1, iterations=1
    )
    lines = [
        "== §V-A I/O model: measured vs predicted page I/O ==",
        f"{'B':>4}  {'M meas':>8}  {'M pred':>8}  "
        f"{'S meas':>8}  {'S pred':>8}  "
        f"{'S@' + str(DEFAULT_POOL) + ' meas':>14}  {'pred':>8}",
    ]
    for block_pages, m_meas, m_pred, s_meas, s_pred, p_meas, p_pred in rows:
        lines.append(
            f"{block_pages:>4}  {m_meas:>8}  {m_pred:>8}  "
            f"{s_meas:>8}  {s_pred:>8}  {p_meas:>14}  {p_pred:>8}"
        )
        # S-GMM never writes, so its total matches the model exactly.
        assert s_meas == s_pred
        assert p_meas == p_pred
        # M-GMM materializes T with one append per join batch; each
        # append may rewrite the trailing partial page, a slack of at
        # most one page per outer block beyond the |T| the model counts.
        slack = -(-64 // block_pages) + 1
        assert m_pred <= m_meas <= m_pred + slack
    lines.append(f"S-GMM wins I/O for BlockSize > {crossover:.1f}")
    # Verify the crossover's prediction against the measurements.
    for block_pages, m_meas, _, s_meas, *_ in rows:
        if block_pages > crossover:
            assert s_meas <= m_meas
        elif block_pages < crossover:
            assert s_meas >= m_meas
    text = "\n".join(lines)
    sys.__stdout__.write("\n" + text + "\n")
    with open(results_dir / "io_cost_crossover.txt", "w") as handle:
        handle.write(text + "\n")
