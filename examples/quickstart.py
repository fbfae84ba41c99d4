"""Quickstart: train a GMM and an NN over normalized relations, then
serve predictions from the same normalized data.

Creates a small star schema (a fact relation ``S`` with a foreign key
into a dimension relation ``R``), trains both model families with the
factorized algorithms, and serves the fitted models factorized too —
no denormalized table is ever materialized, in training or inference.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

import repro

from _scale import scaled


def main() -> None:
    # A temporary on-disk database (deleted on close).
    with repro.Database() as db:
        # Generate S (100k facts, 5 features, a target) ⋈ R (1k rows,
        # 15 features): tuple ratio rr = 100, the regime where
        # factorization pays.
        star = repro.generate_star(
            db,
            repro.StarSchemaConfig.binary(
                n_s=scaled(100_000, 5_000),
                n_r=scaled(1_000, 100),
                d_s=5,
                d_r=15,
                with_target=True,
                seed=7,
            ),
        )
        print(f"relations: {db.relation_names}")
        print(f"join spec: {star.spec}")

        # --- Gaussian mixture over the (virtual) join -----------------
        # algorithm="auto" asks the one cost model (repro.fx.costs)
        # for the arm predicted fastest from the join's cardinalities,
        # pages and blocks; "factorized"/"materialized"/"streaming" pin it.
        gmm = repro.fit_gmm(
            db,
            star.spec,
            n_components=5,
            algorithm="auto",         # resolves to F-GMM at rr = 100
            max_iter=scaled(8, 2),
            tol=1e-4,
            seed=1,
        )
        print(
            f"\n[GMM] {gmm.algorithm}: "
            f"{len(gmm.log_likelihood_history)} EM iterations in "
            f"{gmm.wall_time_seconds:.2f}s "
            f"(final log-likelihood {gmm.log_likelihood_history[-1]:,.0f})"
        )
        print(f"[GMM] page I/O: {gmm.io.pages_read} read, "
              f"{gmm.io.pages_written} written")
        print(f"[GMM] mixing weights: {np.round(gmm.model.params.weights, 3)}")

        # Cluster a few joined tuples (dense rows, [x_S | x_R] order).
        sample = np.random.default_rng(0).normal(size=(5, 20))
        print(f"[GMM] cluster assignments for 5 points: "
              f"{gmm.model.predict(sample)}")

        # --- Neural network over the same join ------------------------
        nn = repro.fit_nn(
            db,
            star.spec,
            hidden_sizes=(50,),
            activation="sigmoid",
            algorithm="factorized",   # F-NN
            epochs=5,
            learning_rate=0.05,
            seed=1,
        )
        print(
            f"\n[NN] {nn.algorithm}: loss per epoch "
            f"{[round(loss, 4) for loss in nn.loss_history]} "
            f"in {nn.wall_time_seconds:.2f}s"
        )
        print(f"[NN] predictions for 3 tuples: "
              f"{nn.predict(sample[:3]).ravel().round(3)}")

        # --- Serve both models over the normalized relations ----------
        # Requests arrive in normalized form: fact features plus the
        # foreign key — dimension-side work is looked up per distinct
        # RID, never recomputed per fact tuple (see repro.serve).
        fact = star.spec.resolve(db).fact
        rows = fact.scan()[:1000]
        xs = fact.project_features(rows)
        fks = rows[:, fact.schema.fk_position("R1")].astype(int)

        clusters = repro.predict_gmm(db, star.spec, gmm, xs, fks)
        outputs = repro.predict_nn(db, star.spec, nn, xs, fks)
        print(f"\n[serve] clusters for 1000 normalized requests: "
              f"counts {np.bincount(clusters)}")
        print(f"[serve] NN outputs head: {outputs[:3].ravel().round(3)}")

        service = repro.serve(db)
        service.register_nn("ratings", nn, star.spec)
        service.predict("ratings", xs, fks)
        stats = service.stats("ratings")
        print(f"[serve] ratings: {stats.rows} rows in "
              f"{stats.wall_seconds:.3f}s "
              f"({stats.rows_per_second:,.0f} rows/s)")

        # --- Cross-model cache sharing (repro.fx) ---------------------
        # Registering the same fitted model under a second name (a
        # blue/green deploy, an A/B control arm) shares its cached
        # dimension partials through the service's PartialStore —
        # partials are keyed by (fingerprint, RID), so value-identical
        # models hold ONE resident copy and warm each other's caches.
        service.register_nn("ratings-canary", nn, star.spec)
        service.predict("ratings-canary", xs, fks)     # warm from start
        store = service.store_stats()
        print(f"[store] {store.caches} cache for "
              f"{store.attachments} registrations "
              f"({store.bytes_resident:,} bytes resident, "
              f"hit rate {store.cache.hit_rate:.0%})")

        # --- Concurrent serving: the worker-pool runtime --------------
        # Point requests enter a bounded queue, coalesce into
        # micro-batches, and are scored by a thread pool over shared
        # partial caches; each batch's FKs are deduplicated exactly
        # once into a DedupPlan that the cost-model planner and the
        # model's one predictor (in the arm the planner chose) both
        # consume, and dimension-row updates (db.update_rows) evict
        # the affected cached partials automatically; under a
        # memory_budget the least recently used partials are evicted
        # first.  See examples/concurrent_serving_demo.py for a
        # multi-client run.
        with repro.serve_runtime(db, num_workers=4) as runtime:
            runtime.register_nn("ratings", nn, star.spec)
            futures = [
                runtime.submit("ratings", xs[i:i + 50], fks[i:i + 50])
                for i in range(0, 1000, 50)
            ]
            outputs = np.concatenate([f.result() for f in futures])
            snapshot = runtime.runtime_stats()
            print(f"[runtime] {len(futures)} point requests -> "
                  f"{snapshot.batches} micro-batches; planner chose "
                  f"{dict(snapshot.planner_decisions['ratings'])}; "
                  f"dedup ratio "
                  f"{snapshot.dedup_ratio['ratings']:.1f}x")
            print(f"[runtime] outputs head: "
                  f"{outputs[:3].ravel().round(3)}")


if __name__ == "__main__":
    main()
