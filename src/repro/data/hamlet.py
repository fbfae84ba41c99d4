"""Simulated Hamlet Plus datasets (Tables IV and V).

The paper evaluates on four real datasets from the Hamlet Plus project
(Expedia, Walmart, Movies) plus dimension-augmented variants
(Expedia3–5) and a three-way Movies join.  Those files are not
redistributable here, so we *simulate* them: generators that reproduce
the published schema dimensions exactly — ``n_S, d_S, n_R, d_R`` per
Table IV/V — with mixture-distributed features (and one-hot sparse
variants for the NN experiments).  The runtime experiments measure how
execution strategies respond to redundancy *structure*, which these
dimensional profiles preserve.

A global ``scale`` shrinks both cardinalities proportionally (the tuple
ratio ``rr = n_S/n_R``, the quantity that matters, is preserved) so the
full suite runs at laptop scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.onehot import one_hot_encode, random_categoricals, split_width
from repro.data.synthetic import (
    DimensionSpec,
    GeneratedStar,
    StarSchemaConfig,
    generate_star,
)
from repro.errors import ModelError
from repro.storage.catalog import Database


@dataclass(frozen=True)
class HamletProfile:
    """Published dimensions of one Hamlet dataset (Tables IV/V)."""

    name: str
    n_s: int
    d_s: int
    n_r: int
    d_r: int
    sparse: bool = False
    description: str = ""

    @property
    def tuple_ratio(self) -> float:
        return self.n_s / self.n_r


HAMLET_PROFILES: dict[str, HamletProfile] = {
    profile.name: profile
    for profile in [
        HamletProfile(
            "expedia1", 942142, 7, 11938, 8,
            description="S_Listings ⋈ R1_Hotels (Table IV)",
        ),
        HamletProfile(
            "expedia2", 942142, 7, 37021, 14,
            description="S_Listings ⋈ R2_Searches (Table IV)",
        ),
        HamletProfile(
            "walmart", 421570, 3, 2340, 9,
            description="S_Sales ⋈ R1_Indicators (Table IV)",
        ),
        HamletProfile(
            "movies", 1000209, 1, 3706, 21,
            description="S_Ratings ⋈ R2_Movies (Table IV)",
        ),
        HamletProfile(
            "walmart_sparse", 421570, 126, 2340, 175, sparse=True,
            description="Walmart one-hot encoded (Table IV, NN)",
        ),
        HamletProfile(
            "movies_sparse", 1000209, 1, 3706, 21, sparse=True,
            description="Movies one-hot encoded (Table IV, NN)",
        ),
        HamletProfile(
            "expedia3", 634133, 7, 2899, 29,
            description="Expedia1 augmented, d_R=29 (Table V)",
        ),
        HamletProfile(
            "expedia4", 634133, 7, 2899, 78,
            description="Expedia1 augmented, d_R=78 (Table V)",
        ),
        HamletProfile(
            "expedia5", 634133, 7, 2899, 218,
            description="Expedia1 augmented, d_R=218 (Table V)",
        ),
    ]
}

# The Movies-3way experiment joins S_Ratings with R1_Users and R2_Movies
# (Section VII-A); d_R1 follows the original MovieLens user features.
MOVIES_3WAY = {
    "n_s": 1000209,
    "d_s": 1,
    "n_r1": 6040,
    "d_r1": 4,
    "n_r2": 3706,
    "d_r2": 21,
}


def _scaled(count: int, scale: float, minimum: int = 8) -> int:
    return max(minimum, int(round(count * scale)))


def load_hamlet(
    db: Database,
    name: str,
    *,
    scale: float = 1.0,
    seed: int = 0,
    with_target: bool | None = None,
    fact_name: str | None = None,
    dimension_prefix: str | None = None,
) -> GeneratedStar:
    """Materialize a simulated Hamlet dataset into ``db``.

    ``with_target`` defaults to True for the sparse (NN) profiles and
    False for the dense (GMM) ones, matching the paper's usage.
    """
    if name not in HAMLET_PROFILES:
        raise ModelError(
            f"unknown Hamlet profile {name!r}; "
            f"have {sorted(HAMLET_PROFILES)}"
        )
    profile = HAMLET_PROFILES[name]
    if scale <= 0:
        raise ModelError(f"scale must be positive, got {scale}")
    if with_target is None:
        with_target = profile.sparse
    n_s = _scaled(profile.n_s, scale)
    n_r = _scaled(profile.n_r, scale)
    if profile.sparse:
        return _generate_sparse(
            db,
            profile,
            n_s,
            n_r,
            seed,
            with_target,
            fact_name or f"S_{name}",
            dimension_prefix or f"R_{name}",
        )
    config = StarSchemaConfig.binary(
        n_s=n_s,
        n_r=n_r,
        d_s=profile.d_s,
        d_r=profile.d_r,
        with_target=with_target,
        seed=seed,
    )
    return generate_star(
        db,
        config,
        fact_name=fact_name or f"S_{name}",
        dimension_prefix=dimension_prefix or f"R_{name}",
    )


def _generate_sparse(
    db: Database,
    profile: HamletProfile,
    n_s: int,
    n_r: int,
    seed: int,
    with_target: bool,
    fact_name: str,
    dimension_prefix: str,
) -> GeneratedStar:
    """Sparse profiles: categorical draws one-hot encoded to the exact
    published widths, loaded through the generic star generator's
    schema builder via a custom feature override."""
    from repro.storage.schema import (
        Schema,
        feature,
        foreign_key,
        key,
        target,
    )

    rng = np.random.default_rng(seed)
    # Choose a categorical column count that yields reasonable
    # cardinalities; ~3 source columns per relation mirrors Walmart.
    s_columns = min(3, profile.d_s)
    r_columns = min(3, profile.d_r)
    s_cards = split_width(profile.d_s, s_columns)
    r_cards = split_width(profile.d_r, r_columns)
    r_feats = one_hot_encode(
        random_categoricals(rng, n_r, r_cards), r_cards
    )
    s_feats = one_hot_encode(
        random_categoricals(rng, n_s, s_cards), s_cards
    )
    fk = rng.integers(0, n_r, size=n_s)
    if n_s >= n_r:
        pinned = rng.permutation(n_s)[:n_r]
        fk[pinned] = np.arange(n_r)

    dim_name = f"{dimension_prefix}1"
    for relation_name in (dim_name, fact_name):
        if relation_name in db:
            raise ModelError(f"relation {relation_name!r} already exists")
    db.create_relation(
        dim_name,
        Schema(
            [key("rid")] + [feature(f"x{j}") for j in range(profile.d_r)]
        ),
        np.column_stack([np.arange(n_r, dtype=np.float64), r_feats]),
    )
    columns = [key("sid")]
    parts = [np.arange(n_s, dtype=np.float64)[:, None]]
    true_weights = None
    if with_target:
        joined = np.concatenate([s_feats, r_feats[fk]], axis=1)
        true_weights = rng.normal(size=joined.shape[1])
        true_weights /= np.sqrt(joined.shape[1])
        signal = joined @ true_weights
        targets = np.sin(signal) + 0.1 * signal + rng.normal(
            scale=0.05, size=n_s
        )
        columns.append(target("y"))
        parts.append(targets[:, None])
    columns.extend(feature(f"x{j}") for j in range(profile.d_s))
    parts.append(s_feats)
    columns.append(foreign_key("fk1", dim_name))
    parts.append(fk[:, None].astype(np.float64))
    db.create_relation(
        fact_name, Schema(columns), np.concatenate(parts, axis=1)
    )

    from repro.join.spec import DimensionJoin, JoinSpec

    config = StarSchemaConfig.binary(
        n_s=n_s,
        n_r=n_r,
        d_s=profile.d_s,
        d_r=profile.d_r,
        with_target=with_target,
        seed=seed,
    )
    return GeneratedStar(
        spec=JoinSpec(fact_name, (DimensionJoin(dim_name, "fk1"),)),
        fact_name=fact_name,
        dimension_names=[dim_name],
        config=config,
        true_weights=true_weights,
    )


def load_movies_3way(
    db: Database,
    *,
    scale: float = 1.0,
    seed: int = 0,
    with_target: bool = False,
    rr_synthetic: float | None = None,
    d_r1: int | None = None,
    fact_name: str = "S_ratings",
) -> GeneratedStar:
    """The Movies three-way join (Section VII-A, multi-way experiments).

    ``rr_synthetic`` mimics the paper's injection protocol: it sets the
    ratio of (synthetic) R1 tuples to R2 tuples, growing R1 and S while
    keeping R2 fixed.  ``d_r1`` overrides the R1 feature width for the
    Fig. 4(b)/6(b) sweeps.
    """
    n_r2 = _scaled(MOVIES_3WAY["n_r2"], scale)
    if rr_synthetic is None:
        n_r1 = _scaled(MOVIES_3WAY["n_r1"], scale)
    else:
        if rr_synthetic <= 0:
            raise ModelError(
                f"rr_synthetic must be positive, got {rr_synthetic}"
            )
        n_r1 = max(8, int(round(n_r2 * rr_synthetic)))
    n_s = _scaled(MOVIES_3WAY["n_s"], scale)
    config = StarSchemaConfig(
        n_s=n_s,
        d_s=MOVIES_3WAY["d_s"],
        dimensions=(
            DimensionSpec(n_r1, d_r1 or MOVIES_3WAY["d_r1"], "R_users"),
            DimensionSpec(n_r2, MOVIES_3WAY["d_r2"], "R_movies"),
        ),
        with_target=with_target,
        seed=seed,
    )
    return generate_star(db, config, fact_name=fact_name)
