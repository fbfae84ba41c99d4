"""Customer segmentation over a normalized retail schema.

The paper's motivating example (Section I): an analyst models shopping
behaviour from ``Orders(OrderID, CustomerID, ItemID, Time, Amount)``
joined with ``Items(ItemID, Price, Size, Colour, Category)``.  Item
attributes like price and size are essential features, so the model
must be trained over the join — but the join is never materialized:
F-GMM pushes the EM computation through it.

The script builds the two relations, fits mixtures with all three
execution strategies, verifies they produce the same segments, and
reports the runtime and I/O each strategy paid.

Run:  python examples/retail_segmentation.py
"""

from __future__ import annotations

import numpy as np

import repro

from _scale import scaled
from repro.storage import feature, foreign_key, key


def build_schema(db: repro.Database, rng: np.random.Generator) -> repro.JoinSpec:
    """Orders ⋈ Items with three latent shopper segments."""
    n_items, n_orders = scaled(600, 120), scaled(120_000, 8_000)

    # Items: price, size, weight, rating plus a dozen derived catalog
    # attributes (margins, stock and popularity statistics) — the wide
    # dimension side where factorization pays (Section V-B: savings
    # grow with d_R).
    n_categories = 4
    category = rng.integers(0, n_categories, size=n_items)
    category_price = np.array([8.0, 25.0, 80.0, 300.0])
    price = category_price[category] * rng.lognormal(0, 0.3, n_items)
    size = rng.gamma(2.0, 1.5, n_items) + category
    weight = rng.gamma(2.0, 0.8, n_items) * (1 + category)
    rating = np.clip(rng.normal(4.0, 0.6, n_items), 1, 5)
    catalog_stats = np.column_stack(
        [
            np.log(price),
            price * rng.uniform(0.2, 0.5, n_items),      # margin
            rng.poisson(40, n_items).astype(float),       # stock
            rng.gamma(3.0, 2.0, (n_items, 9)) + category[:, None],
        ]
    )
    items = np.column_stack(
        [np.arange(n_items, dtype=np.float64), price, size, weight,
         rating, catalog_stats]
    )
    item_columns = [key("item_id"), feature("price"), feature("size"),
                    feature("weight"), feature("rating")]
    item_columns.extend(
        feature(f"stat{i}") for i in range(catalog_stats.shape[1])
    )
    db.create_relation("items", repro.Schema(item_columns), items)

    # Orders: three shopper segments with different basket behaviour
    # (bargain hunters, regulars, bulk buyers) and skewed item choice.
    segment = rng.choice(3, size=n_orders, p=[0.5, 0.35, 0.15])
    amount = np.choose(
        segment,
        [rng.gamma(1.5, 9.0, n_orders),
         rng.gamma(4.0, 22.0, n_orders),
         rng.gamma(9.0, 60.0, n_orders)],
    )
    quantity = np.choose(
        segment,
        [rng.poisson(1.2, n_orders),
         rng.poisson(3.0, n_orders),
         rng.poisson(14.0, n_orders)],
    ).astype(np.float64) + 1.0
    hour = np.choose(
        segment,
        [rng.normal(20, 2, n_orders),
         rng.normal(12, 3, n_orders),
         rng.normal(9, 1.5, n_orders)],
    ) % 24
    item_choice = rng.integers(0, n_items, size=n_orders)
    item_choice[: n_items] = np.arange(n_items)  # reference every item
    orders = np.column_stack(
        [
            np.arange(n_orders, dtype=np.float64),
            amount, quantity, hour,
            item_choice.astype(np.float64),
        ]
    )
    db.create_relation(
        "orders",
        repro.Schema(
            [key("order_id"), feature("amount"), feature("quantity"),
             feature("hour"), foreign_key("item_id", "items")]
        ),
        orders,
    )
    return repro.JoinSpec.binary("orders", "items")


def main() -> None:
    rng = np.random.default_rng(11)
    with repro.Database() as db:
        spec = build_schema(db, rng)
        print("Schema: orders(order_id, amount, quantity, hour, item_id)")
        print("        items(item_id, price, size, weight, rating)")
        print(f"orders: {db['orders'].nrows:,} rows / "
              f"{db['orders'].npages:,} pages;  "
              f"items: {db['items'].nrows:,} rows / "
              f"{db['items'].npages:,} pages\n")

        config = repro.EMConfig(
            n_components=3, max_iter=scaled(12, 3), tol=1e-5,
            seed=4
        )
        comparison = repro.compare_strategies(db, spec, "gmm", config)

        print(f"{'strategy':<14} {'wall (s)':>9} {'pages read':>11} "
              f"{'pages written':>14} {'final loglik':>14}")
        for name, result in comparison.results.items():
            print(
                f"{result.algorithm:<14} "
                f"{result.wall_time_seconds:>9.2f} "
                f"{result.io.pages_read:>11,} "
                f"{result.io.pages_written:>14,} "
                f"{result.final_log_likelihood:>14,.0f}"
            )

        speedups = comparison.speedup_of_factorized()
        print(f"\nF-GMM speedup: "
              + ", ".join(f"{v:.2f}x vs {k}" for k, v in speedups.items()))

        # All strategies learned the same mixture — use any of them.
        from repro.core.api import FACTORIZED

        params = comparison.results[FACTORIZED].params
        model = repro.GaussianMixtureModel(params)
        print("\nsegment shares:", np.round(np.sort(params.weights), 3))
        print("segment mean order amount:",
              np.round(np.sort(params.means[:, 0]), 1))


if __name__ == "__main__":
    main()
