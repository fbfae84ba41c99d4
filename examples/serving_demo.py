"""End-to-end serving: train over normalized data, then serve from it.

Builds a star schema, trains a GMM and an NN with the factorized
algorithms, registers both in a :class:`repro.ModelService`, and
answers request batches of *(fact features, foreign keys)* — the
normalized form a live serving tier receives — comparing the
materialized and factorized inference paths on throughput, partial-
cache behaviour, and exactness.

Run:  python examples/serving_demo.py
"""

from __future__ import annotations

import numpy as np

import repro

from _scale import scaled


def main() -> None:
    with repro.Database() as db:
        # S (50k facts) ⋈ R (500 rows, 15 features): rr = 100.
        star = repro.generate_star(
            db,
            repro.StarSchemaConfig.binary(
                n_s=scaled(50_000, 5_000),
                n_r=scaled(500, 100),
                d_s=5,
                d_r=15,
                with_target=True,
                seed=7,
            ),
        )
        gmm = repro.fit_gmm(
            db, star.spec, n_components=4, max_iter=5, seed=1
        )
        nn = repro.fit_nn(
            db, star.spec, hidden_sizes=(50,), epochs=3, seed=1
        )
        print(f"trained {gmm.algorithm} and {nn.algorithm} over "
              f"{db.relation_names} — join never materialized")

        # Register each model under both serving strategies.  One
        # budget bounds every model's cached partials together: past
        # it, the store evicts the globally coldest rows.
        service = repro.serve(db, memory_budget=128 << 10)   # 128 KiB
        service.register_gmm("segments/materialized", gmm, star.spec,
                             strategy="materialized")
        service.register_gmm("segments", gmm, star.spec)  # factorized
        service.register_nn("ratings", nn, star.spec)

        # Simulate request traffic: batches of fact rows with FKs.
        fact = star.spec.resolve(db).fact
        rows = fact.scan()
        rng = np.random.default_rng(0)
        for _ in range(20):
            picks = rng.integers(0, rows.shape[0], size=256)
            xs = fact.project_features(rows[picks])
            fks = rows[picks, fact.schema.fk_position("R1")].astype(int)
            fast = service.predict("segments", xs, fks)
            slow = service.predict("segments/materialized", xs, fks)
            assert np.array_equal(fast, slow)  # exactness, every batch
            service.predict("ratings", xs, fks)

        for name in ("segments", "segments/materialized", "ratings"):
            stats = service.stats(name)
            print(f"[{name}] {stats.requests} requests, "
                  f"{stats.rows} rows in {stats.wall_seconds:.3f}s "
                  f"({stats.rows_per_second:,.0f} rows/s), "
                  f"{stats.io.pages_read} pages read")
        for cache in service.cache_stats("ratings"):
            print(f"[ratings] partial cache: {cache.hits} hits / "
                  f"{cache.misses} misses "
                  f"(hit rate {cache.hit_rate:.1%}, "
                  f"{cache.cross_evictions} evicted by the budget, "
                  f"{cache.entries} resident)")
        store = service.store_stats()
        print(f"[store] {store.bytes_resident:,} of "
              f"{store.capacity_floats * 8:,} budget bytes resident, "
              f"{store.cross_evictions} rows evicted")

        # Whole-table scoring, still without materializing the join.
        labels = service.predict_all("segments")
        share = np.bincount(labels) / labels.size
        print(f"segment shares over all {labels.size} facts: "
              f"{np.round(share, 3)}")


if __name__ == "__main__":
    main()
