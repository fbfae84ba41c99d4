"""Rating prediction over a normalized recommendation schema.

The paper's streaming-company scenario (Section I): predicting ratings
requires joining user viewing history with video/movie metadata.  This
script uses the simulated MovieLens-like dataset
(``S_ratings ⋈ R_users ⋈ R_movies`` — a three-way star join, the
Movies-3way setting of Section VII-A), trains F-NN directly over the
normalized relations, and compares against the materialize and stream
baselines.

Run:  python examples/recommender_ratings.py
"""

from __future__ import annotations

import numpy as np

import repro

from _scale import scaled


def main() -> None:
    with repro.Database() as db:
        star = repro.load_movies_3way(
            db, scale=scaled(0.05, 0.01), with_target=True, seed=21
        )
        resolved = star.spec.resolve(db)
        print("Relations:")
        for name in db.relation_names:
            relation = db[name]
            print(f"  {name:<12} {relation.nrows:>8,} rows  "
                  f"{relation.schema.num_features:>3} features")
        print(f"join width d = {resolved.total_features} "
              f"(d_S={resolved.layout.sizes[0]}, "
              f"d_R1={resolved.layout.sizes[1]}, "
              f"d_R2={resolved.layout.sizes[2]})\n")

        config = repro.NNConfig(
            hidden_sizes=(50,),
            activation="sigmoid",
            epochs=scaled(12, 3),
            learning_rate=0.1,
            seed=2,
        )
        comparison = repro.compare_strategies(db, star.spec, "nn", config)

        print(f"{'strategy':<8} {'wall (s)':>9} {'pages read':>11} "
              f"{'final loss':>11}")
        for name, result in comparison.results.items():
            print(
                f"{result.algorithm:<8} {result.wall_time_seconds:>9.2f} "
                f"{result.io.pages_read:>11,} "
                f"{result.final_loss:>11.5f}"
            )
        print(
            "(S-NN and F-NN share batches, so their losses are "
            "identical; M-NN batches by pages of T, a different but "
            "equally valid mini-batch trajectory.)"
        )
        speedups = comparison.speedup_of_factorized()
        print("\nF-NN speedup: "
              + ", ".join(f"{v:.2f}x vs {k}" for k, v in speedups.items()))

        # Rate (user, movie) pairs with the trained network: rejoin a
        # slice of the star and predict.
        from repro.core.api import FACTORIZED
        from repro.join.reference import nested_loop_join

        result = comparison.results[FACTORIZED]
        print("\nF-NN training loss per epoch:",
              [round(loss, 4) for loss in result.loss_history])
        joined = nested_loop_join(db, star.spec)
        predictions = result.model.predict(joined.design.fact_block).ravel()
        mse = float(np.mean((predictions - joined.targets) ** 2))
        print(f"full-data MSE {mse:.4f} vs "
              f"constant-predictor variance {joined.targets.var():.4f}")


if __name__ == "__main__":
    main()
