"""tools/calibrate_costs.py keeps running: its ``--smoke`` grid (two
cells, every arm of both kinds, then the e2e shapes at 1/100) through
``main()`` as a developer would — the printed table parses back, a
negative weight is refused, and the committed table is left as it was."""

import ast
import math
import sys
import time
from pathlib import Path

import numpy as np

import repro.fx.costs as costs

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import calibrate_costs  # noqa: E402


def printed_table(out: str) -> dict:
    start = out.index("TRAINING_SECONDS = {")
    end = out.index("\n}", start) + 2
    return ast.literal_eval(out[start:end].split("=", 1)[1])


def test_smoke(capsys):
    source = Path(costs.__file__).read_bytes()
    committed = dict(costs.TRAINING_SECONDS)
    tick = time.perf_counter()
    calibrate_costs.main(["--smoke"])
    assert time.perf_counter() - tick < 10
    out = capsys.readouterr().out
    table = printed_table(out)
    assert table.keys() == committed.keys()
    for weights in table.values():
        assert len(weights) == len(costs.FEATURES)
        assert all(math.isfinite(w) and w >= 0 for w in weights)
    cells = out.split("held out\n")[1].split("held-out ")[0].splitlines()
    assert len(cells) == 2 * len(calibrate_costs.SMOKE)
    for line in cells:
        regret = float(line.split()[-1])
        assert regret >= 1.0
    for kind in ("gmm", "nn"):
        assert f"held-out {kind}: median regret " in out
        for shape in calibrate_costs.SHAPES:
            assert f"\n{kind:<4} {shape:<6}" in out
    assert Path(costs.__file__).read_bytes() == source
    assert costs.TRAINING_SECONDS == committed


def test_a_negative_weight_is_refused():
    """Walls that only a negative weight on the second basis function
    fits: ``lstsq`` alone returns it, the fit pins it at zero and
    refits the other two."""
    x = np.random.default_rng(0).uniform(1.0, 2.0, size=(12, 3))
    seconds = x @ np.array([1.0, -0.5, 0.8])
    unconstrained = np.linalg.lstsq(x / seconds[:, None], np.ones(12), rcond=None)[0]
    assert unconstrained[1] < 0
    theta, refused = calibrate_costs.fit_weights(x, seconds)
    assert refused == [1]
    assert theta[1] == 0.0
    assert (theta >= 0).all() and theta[0] > 0 and theta[2] > 0
