"""Concurrent serving: a worker pool answering point-request traffic.

Simulates the serving tier under load: several client threads fire
normalized point requests (fact features + foreign key) at a
:func:`repro.serve_runtime` worker pool.  The runtime coalesces them
into micro-batches, plans each batch materialized-vs-factorized from
the inference cost model, and shares one lock-guarded partial cache
per model fingerprint across its workers.  Mid-run, a dimension row is
updated in place — the catalog's row-version event evicts exactly that
RID's cached partials, and later predictions pick up the new row.

Run:  python examples/concurrent_serving_demo.py
"""

from __future__ import annotations

import threading

import numpy as np

import repro

from _scale import scaled

N_CLIENTS = 4
REQUESTS_PER_CLIENT = 50
REQUEST_ROWS = 64


def main() -> None:
    with repro.Database() as db:
        star = repro.generate_star(
            db,
            repro.StarSchemaConfig.binary(
                n_s=scaled(50_000, 5_000), n_r=scaled(500, 100),
                d_s=5, d_r=15,
                with_target=True, seed=7,
            ),
        )
        nn = repro.fit_nn(db, star.spec, hidden_sizes=(64,), epochs=2,
                          seed=1)
        fact = star.spec.resolve(db).fact
        rows = fact.scan()
        features = fact.project_features(rows)
        fks = rows[:, fact.schema.fk_position("R1")].astype(np.int64)

        with repro.serve_runtime(
            db, num_workers=4, max_batch_rows=2048, max_wait_ms=2.0
        ) as runtime:
            runtime.register_nn("ratings", nn, star.spec)

            def client(client_id: int) -> None:
                rng = np.random.default_rng(client_id)
                for _ in range(REQUESTS_PER_CLIENT):
                    start = rng.integers(0, len(rows) - REQUEST_ROWS)
                    stop = start + REQUEST_ROWS
                    runtime.predict(
                        "ratings", features[start:stop], fks[start:stop]
                    )

            threads = [
                threading.Thread(target=client, args=(c,))
                for c in range(N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            stats = runtime.stats("ratings")
            snapshot = runtime.runtime_stats()
            print(f"[runtime] {stats.rows:,} rows in "
                  f"{stats.wall_seconds:.3f}s of batch time "
                  f"({stats.rows_per_second:,.0f} rows/s)")
            print(f"[runtime] batches: {snapshot.batches}, size histogram "
                  f"{snapshot.batch_size_histogram}")
            print(f"[runtime] planner decisions: "
                  f"{snapshot.planner_decisions['ratings']}")
            for worker_id, worker in enumerate(snapshot.workers):
                print(f"[runtime] worker {worker_id}: "
                      f"{worker.batches} batches, {worker.rows:,} rows")
            (cache,) = snapshot.cache_stats["ratings"]
            print(f"[runtime] partial cache: {cache.entries} entries, "
                  f"{cache.bytes_resident / 1024:.1f} KiB resident, "
                  f"hit rate {cache.hit_rate:.1%}")

            # --- a dimension row changes mid-flight -------------------
            victim = int(fks[0])
            relation = db["R1"]
            position = relation.positions_of_keys(np.array([victim]))
            new_row = relation.scan()[position[0]].copy()
            new_row[1:] += 1.0
            before = runtime.predict(
                "ratings", features[:1], fks[:1]
            )
            db.update_rows("R1", position, new_row[None, :])
            after = runtime.predict(
                "ratings", features[:1], fks[:1]
            )
            print(f"\n[invalidation] updated R1 rid={victim}; evicted "
                  f"{runtime.runtime_stats().invalidated_rids['ratings']} "
                  f"cached partial(s)")
            print(f"[invalidation] prediction before {before.ravel()} "
                  f"-> after {after.ravel()}")


if __name__ == "__main__":
    main()
