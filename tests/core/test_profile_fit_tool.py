"""tools/profile_fit.py keeps running: one pass per model and one of
the maintenance build at its ``--smoke`` scale, driven through
``main()`` as a developer would."""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import profile_fit  # noqa: E402


@pytest.mark.parametrize("argv", [
    ["gmm", "--shape", "star3", "--smoke", "--top", "3"],
    ["nn", "--shape", "rr100", "--smoke", "--arm", "F", "--top", "3"],
], ids=["gmm: every arm", "nn: one arm"])
def test_smoke(argv, capsys):
    profile_fit.main(argv)
    out = capsys.readouterr().out
    arms = ["F"] if "--arm" in argv else list(profile_fit.ARMS)
    for arm in arms:
        assert f"{arm:>4} (" in out
    assert "tottime" in out


def test_maintain_smoke(capsys):
    profile_fit.main(["maintain", "--shape", "star3", "--smoke", "--top", "3"])
    out = capsys.readouterr().out
    for line in ("maintain(...): ", "update_rows(32): ", "flush(): "):
        assert line in out
    held = float(out.split("stats.nbytes: ")[1].split(" MiB")[0])
    assert 0.0 < held < 1.0             # star3 / 100: 1,000 fact rows
    assert "tottime" in out


def test_shapes_are_the_benchmarks():
    """The copied constants have not drifted from the e2e workloads."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    full = workloads.SHAPES["full"]
    for name, key in (("rr100", "train_rr100_wide"), ("rr2", "train_rr2_narrow")):
        n_s, d_s, ((n_r, d_r),), iterations, (hidden, epochs) = profile_fit.SHAPES[name]
        c = full[key]
        assert (n_s, n_r, d_s, d_r) == (c["n_s"], c["n_r"], c["d_s"], c["d_r"])
        assert iterations == workloads.TRAIN_GMM["max_iter"]
        assert (hidden, epochs) == (
            workloads.TRAIN_NN["hidden_sizes"][0], workloads.TRAIN_NN["epochs"]
        )
    n_s, d_s, dims, iterations, (hidden, epochs) = profile_fit.SHAPES["star3"]
    assert (n_s, d_s, dims) == (
        workloads.STAR3["n_s"], workloads.STAR3["d_s"], workloads.STAR3["dims"]
    )
    assert iterations == workloads.SERVE_GMM["max_iter"]
    assert (hidden, epochs) == (
        workloads.SERVE_NN["hidden_sizes"][0], workloads.SERVE_NN["epochs"]
    )
    assert profile_fit.UPDATE_ROWS == (
        workloads.SHAPES["full"]["serve_update_mix"]["update_rows"]
    )
