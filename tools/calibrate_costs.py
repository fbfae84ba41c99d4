#!/usr/bin/env python3
"""Fit ``repro.fx.costs.TRAINING_SECONDS``: a training arm's seconds as θ · features.

    PYTHONPATH=src python tools/calibrate_costs.py [--reps N] [--smoke]

Every cell of the grid — tuple ratio × d_R × q × (K, n_h) × (n_S, passes) —
is a synthetic star that every arm of both model kinds trains over through
``core.training.train``, timed with ``profile_fit``'s warm-then-time timer
(best of ``--reps`` rounds; warm-index fits, as every fit after a star's
first) and taken to the reference host's full speed by
the e2e benchmark's probe (``benchmarks/e2e/probe.py``), as
``benchmarks/e2e/run.py`` reports fit seconds: the host runs 20-100 % slower
for minutes at a time.
θ per (kind, arm) is the least-squares fit (``numpy.linalg.lstsq``, relative
error) of those walls on the arm's ``FEATURES`` as ``algorithm="auto"``
records them.  A negative weight is refused: its basis function is pinned at
zero for that arm and the rest refitted, until no weight is negative.

Prints, and writes nothing: the literal table to paste into
``src/repro/fx/costs.py``; each cell's residuals and the regret of ``auto``
with the cell left out of the fit; and the e2e shapes of
``profile_fit.SHAPES``, which no fit sees — measured vs predicted per arm,
and ``auto``'s regret under the committed table and under the new one.
Export the allocator tuning of ``benchmarks/e2e/run.py`` and
``OPENBLAS_NUM_THREADS=1`` first, as for ``profile_fit.py``.  ``--smoke`` is
a 2-cell grid at 1/50 scale and the e2e shapes at 1/100.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import statistics
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro
from profile_fit import COMPONENTS, SHAPES, star_config, warm_then_time
from repro.core.training import KINDS, _choose, train
from repro.fx.costs import FEATURES
from repro.gmm.base import EMConfig
from repro.join.bnl import DEFAULT_BLOCK_PAGES
from repro.nn.base import NNConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
import probe  # noqa: E402

ARMS = ("materialized", "streaming", "factorized")      # the tie order
N_S, D_S = 100_000, 5
RATIOS = (1, 2, 5, 20, 100)
WIDTHS = (5, 15)
ARITIES = (1, 2)
MODELS = ((2, 16), (COMPONENTS, 50))                    # (K, n_h)
# (n_S, EM iterations, epochs): a short run, and one at the e2e fits' passes.
RUNS = ((N_S // 2, 2, 1), (N_S, 3, 2))
SMOKE = ((2, 5, 1, MODELS[0], RUNS[0]), (20, 15, 2, MODELS[1], RUNS[1]))
REGRET_LIMIT = 1.1                                      # cells above are listed


@dataclass
class Cell:
    """One kind's fits over one star: what ``auto`` saw, what each arm took."""

    name: str
    kind: str
    features: dict      # arm -> feature values, in FEATURES order
    committed: dict     # allowed arm -> seconds the committed table predicts
    walls: dict         # arm -> measured seconds, at full host speed

    @property
    def allowed(self) -> tuple:
        """The arms the memory budget leaves, in tie order."""
        return tuple(self.committed)


def measure(name, star, k, iterations, hidden, epochs, reps):
    """Both kinds' cells over ``star``: every arm timed ``reps`` times,
    the rounds bracketed by two probes of the host's speed."""
    configs = {
        "gmm": EMConfig(n_components=k, max_iter=iterations, tol=0.0),
        "nn": NNConfig(hidden_sizes=(hidden,), epochs=epochs),
    }
    with repro.Database() as db:
        spec = repro.generate_star(db, star).spec
        for kind, config in configs.items():
            record = _choose(
                db, spec.resolve(db), kind, *KINDS[kind].cost_shape(config),
                DEFAULT_BLOCK_PAGES,
            )
            before = probe.slowdown()
            timed = warm_then_time({
                arm: functools.partial(train, db, spec, kind, arm, config)
                for arm in ARMS
            }, reps)
            slowdown = probe.between(before, probe.slowdown())
            yield Cell(
                name, kind,
                {arm: tuple(record["features"][arm].values()) for arm in ARMS},
                record["predicted_s"],
                {arm: seconds / slowdown for arm, (seconds, _) in timed.items()},
            )


def grid(smoke: bool):
    """``measure`` arguments for every calibration cell."""
    cells = SMOKE if smoke else itertools.product(
        RATIOS, WIDTHS, ARITIES, MODELS, RUNS
    )
    for rr, width, q, (k, hidden), (n_s, iterations, epochs) in cells:
        n_s //= 50 if smoke else 1
        star = repro.StarSchemaConfig(
            n_s=n_s, d_s=D_S,
            dimensions=(repro.DimensionSpec(n_s // rr, width),) * q,
            with_target=True, seed=0,
        )
        yield (f"rr={rr} d_R={width} q={q} n_S={n_s} K|n_h={k}|{hidden}",
               star, k, iterations, hidden, epochs)


def e2e_shapes(smoke: bool):
    """``measure`` arguments for the held-out e2e shapes."""
    for shape, (_, _, _, iterations, (hidden, epochs)) in SHAPES.items():
        yield (shape, star_config(shape, smoke), COMPONENTS, iterations,
               hidden, epochs)


def fit_weights(features, seconds):
    """``(θ, refused)``: θ ≥ 0 minimizing ``Σ ((θ·x − y) / y)²``.

    Solved by ``numpy.linalg.lstsq`` over unit-scaled columns; while a
    weight comes out negative, the most negative one's basis function
    is refused — pinned at zero — and the rest refitted.  ``refused``
    lists those columns in refusal order."""
    seconds = np.asarray(seconds, dtype=np.float64)
    x = np.asarray(features, dtype=np.float64) / seconds[:, None]
    scale = np.abs(x).max(axis=0)
    scale[scale == 0] = 1.0
    x /= scale
    free, refused = list(range(x.shape[1])), []
    while True:
        theta = np.zeros(x.shape[1])
        if free:
            theta[free] = np.linalg.lstsq(
                x[:, free], np.ones(len(seconds)), rcond=None
            )[0]
        if theta.min() >= 0:
            return theta / scale, refused
        worst = int(theta.argmin())
        free.remove(worst)
        refused.append(worst)


def fit_table(cells):
    """θ per (kind, arm) over ``cells``, and the names each refused."""
    table, refused = {}, {}
    for kind, arm in itertools.product(KINDS, ARMS):
        mine = [cell for cell in cells if cell.kind == kind]
        theta, dropped = fit_weights(
            [cell.features[arm] for cell in mine],
            [cell.walls[arm] for cell in mine],
        )
        table[kind, arm] = tuple(float(w) for w in theta)
        refused[kind, arm] = [FEATURES[j] for j in dropped]
    return table, refused


def predict(table, cell, arms=None) -> dict:
    """Seconds ``table`` predicts for ``arms``, by default the ones
    ``cell``'s memory budget allows."""
    return {
        arm: float(np.dot(table[cell.kind, arm], cell.features[arm]))
        for arm in arms or cell.allowed
    }


def regret(cell, predicted: dict) -> float:
    """Measured wall of the predicted argmin over the fastest allowed arm."""
    chosen = min(predicted, key=predicted.get)
    return cell.walls[chosen] / min(cell.walls[arm] for arm in cell.allowed)


def print_table(table) -> None:
    print("TRAINING_SECONDS = {")
    for (kind, arm), theta in table.items():
        weights = ", ".join(f"{w:.4g}" for w in theta)
        print(f'    ("{kind}", "{arm}"): ({weights}),')
    print("}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=5, help="timed rounds per arm")
    parser.add_argument("--smoke", action="store_true", help="2 cells, tiny")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore", repro.ConvergenceWarning)
    probe.enabled = not args.smoke      # a smoke run's numbers fit nothing

    cells = [
        cell for shape in grid(args.smoke) for cell in measure(*shape, args.reps)
    ]
    table, refused = fit_table(cells)
    print(f"# {len(cells) // len(KINDS)} stars x {len(KINDS)} kinds x {len(ARMS)} arms, "
          f"{args.reps} timed rounds; FEATURES = {FEATURES}")
    print_table(table)
    for (kind, arm), names in refused.items():
        if names:
            print(f"refused: {kind} {arm}: {', '.join(names)}")

    print("\nmeasured s (predicted / measured - 1) per arm, M S F; * = over the "
          "memory budget; auto's regret with the cell held out")
    held_out = {kind: [] for kind in KINDS}
    for cell in cells:
        rest, _ = fit_table([c for c in cells if c.name != cell.name])
        cell_regret = regret(cell, predict(rest, cell))
        held_out[cell.kind].append((cell_regret, cell.name))
        fitted = predict(table, cell, ARMS)
        print(f"{cell.kind:<4} {cell.name:<36}", *(
            f"{cell.walls[arm]:6.3f}{' *'[arm not in cell.allowed]}"
            f"({fitted[arm] / cell.walls[arm] - 1:+4.0%})"
            for arm in ARMS
        ), f"{cell_regret:5.2f}")
    for kind, regrets in held_out.items():
        values = [r for r, _ in regrets]
        print(f"held-out {kind}: median regret {statistics.median(values):.2f}, "
              f"worst {max(values):.2f}")
        for value, name in sorted(regrets, reverse=True):
            if value > REGRET_LIMIT:
                print(f"  above {REGRET_LIMIT}: {name} {value:.2f}")

    print("\ne2e shapes (never fitted): arm measured / predicted new / "
          "committed; auto's regret new / committed")
    for shape in e2e_shapes(args.smoke):
        for cell in measure(*shape, args.reps):
            new = predict(table, cell)
            print(f"{cell.kind:<4} {cell.name:<6}", *(
                f"{arm[0].upper()} {cell.walls[arm]:.3f} / "
                + " / ".join(
                    "-" if arm not in guess else f"{guess[arm]:.3f}"
                    for guess in (new, cell.committed)
                )
                for arm in ARMS
            ), f"regret {regret(cell, new):.2f} / "
               f"{regret(cell, cell.committed):.2f}", sep="  ")


if __name__ == "__main__":
    main()
