"""When should you materialize the join?  (Section V-A in practice.)

The choice between M- (materialize once, re-read every pass) and
S-/F- (re-join every pass) is an I/O trade-off governed by the block
size and table sizes.  This script measures real page I/O from the
storage engine across block sizes, compares it against the paper's
closed-form crossover

    BlockSize* = (p·iter−1)|R||S| / ((p·iter+1)|T| − (p·iter−1)|R|)

with ``p`` the join passes per EM iteration (three in the paper's
Algorithm 1, one in this package's driver), and prints the regime map
an engineer would use to pick a strategy.

Run:  python examples/warehouse_io_analysis.py
"""

from __future__ import annotations

import warnings

import repro

from _scale import scaled
from repro.fx.costs import streaming_wins_block_size


def main() -> None:
    warnings.simplefilter("ignore")
    iterations = 3
    with repro.Database(page_size_bytes=1024) as db:
        star = repro.generate_star(
            db,
            repro.StarSchemaConfig.binary(
                n_s=scaled(20_000, 4_000), n_r=scaled(400, 80),
                d_s=4, d_r=8, seed=5
            ),
        )
        config = repro.EMConfig(
            n_components=3, max_iter=iterations, tol=0.0, seed=1
        )
        pages_r = db["R1"].npages
        pages_s = db["S"].npages

        print(f"|R| = {pages_r} pages, |S| = {pages_s} pages, "
              f"iterations = {iterations}\n")
        print(f"{'BlockSize':>9} {'M-GMM pages':>12} {'S-GMM pages':>12} "
              f"{'cheaper':>8}")
        pages_t = None
        for block_pages in (1, 2, 4, 8, 16, 32, 128):
            runs = repro.compare_strategies(
                db, star.spec, "gmm", config, block_pages=block_pages,
                strategies=("materialized", "streaming"),
            ).results
            m_pages = runs["materialized"].io.total_pages
            pages_t = runs["materialized"].extra["table_pages"]
            s_pages = runs["streaming"].io.total_pages
            winner = "S" if s_pages < m_pages else "M"
            print(f"{block_pages:>9} {m_pages:>12,} {s_pages:>12,} "
                  f"{winner:>8}")

        crossover = streaming_wins_block_size(
            pages_r, pages_s, pages_t, iterations
        )
        print(
            f"\nSection V-A predicts S-GMM wins I/O for BlockSize > "
            f"{crossover:.1f} (|T| = {pages_t} pages)"
        )
        print(
            "F-GMM has S-GMM's I/O profile with strictly less "
            "computation — it is the right default either way."
        )


if __name__ == "__main__":
    main()
