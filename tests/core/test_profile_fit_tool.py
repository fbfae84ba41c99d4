"""tools/profile_fit.py and tools/profile_runtime.py keep running: one
pass per model, one of the maintenance build, one closed-loop and one
paced (``--rate``) runtime window per executor and one ``--inline``
service window per ``--window`` at their ``--smoke`` scale, driven
through ``main()`` as a developer would."""

import ast
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import profile_fit  # noqa: E402
import profile_runtime  # noqa: E402


@pytest.mark.parametrize("argv", [
    ["gmm", "--shape", "star3", "--smoke", "--top", "3"],
    ["nn", "--shape", "rr100", "--smoke", "--arm", "F", "--top", "3"],
], ids=["gmm: every arm", "nn: one arm"])
def test_smoke(argv, capsys):
    profile_fit.main(argv)
    out = capsys.readouterr().out
    arms = ["F"] if "--arm" in argv else list(profile_fit.ARMS)
    for arm in arms:
        line = out.split(f"{arm:>4} (")[1].split("\n")[0]
        assert " s, cold index " in line and " s, predicted " in line
        if arm != "M":          # the memory budget may rule M out
            assert line.endswith(" s") and "predicted -" not in line
        if argv[0] == "gmm":    # the EM kernels' share, beside the wall
            wall, estep, mstep = (
                float(line.split(label)[1].split(" s, ")[0])
                for label in ("): ", " s, estep ", " s, mstep ")
            )
            assert 0.0 < estep and 0.0 <= mstep and estep + mstep <= wall
        else:
            assert "estep" not in line
    assert "tottime" in out


def test_maintain_smoke(capsys):
    profile_fit.main(["maintain", "--shape", "star3", "--smoke", "--top", "3"])
    out = capsys.readouterr().out
    for line in ("maintain(...): ", "update_rows(32): ", "flush(): "):
        assert line in out
    held = float(out.split("stats.nbytes: ")[1].split(" MiB")[0])
    assert 0.0 < held < 1.0             # star3 / 100: 1,000 fact rows
    # the ridge maintainer's build and the refit arm it is priced against
    for name in ("maintain(linear): ", "fit_ridge(): "):
        seconds = float(out.split(f"\n{name}")[1].split(" s\n")[0])
        assert 0.0 < seconds < 60.0
    assert out.index("fit_ridge(): ") < out.index("tottime")
    assert "tottime" in out


def check_peak_rss(out, executor):
    """The ``VmHWM`` line: the parent's, and each worker's and the sum
    with worker processes."""
    line = out.split("peak RSS (VmHWM): ")[1].split("\n")[0]
    parent = float(line.split("parent ")[1].split(" MiB")[0])
    assert parent > 0
    if executor == "thread":
        assert "workers" not in line
        return
    workers = [float(mib) for mib in line.split("workers ")[1].split(" MiB")[0].split(", ")]
    assert len(workers) == profile_runtime.RUNTIME["num_workers"]
    assert all(mib > 0 for mib in workers)
    total = float(line.split("sum ")[1].split(" MiB")[0])
    assert total == pytest.approx(parent + sum(workers), abs=0.2)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_runtime_smoke(executor, capsys):
    profile_runtime.main(["--executor", executor, "--smoke", "--top", "3"])
    out = capsys.readouterr().out
    assert "window: wall " in out and ", idle " in out
    check_peak_rss(out, executor)
    # one dispatcher thread per worker on either executor
    dispatchers = profile_runtime.RUNTIME["num_workers"]
    cpu = out.split("window: wall ")[1].split("process CPU ")[1]
    process = float(cpu.split(" s,")[0])
    split = [
        float(out.split(f"CPU, {name}: ")[1].split(" s, ")[0])
        for name in ("submitter thread", f"{dispatchers} dispatcher thread(s)")
    ]
    assert all(seconds > 0 for seconds in split)
    assert sum(split) <= process * 1.05 + 0.01     # threads of one process
    batches = int(out.split("batches: ")[1].split(",")[0])
    assert 1 <= batches <= profile_runtime.OUTSTANDING
    assert "closed by {'rows': 0, 'quiet': " in out
    timeline = out.split("execute-ends\n")[1].split("\n\n")[0].splitlines()
    assert 1 <= len(timeline) <= profile_runtime.TIMELINE
    for row in timeline:
        size, first, last, taken, *ended = map(float, row.split())
        assert 1 <= size <= profile_runtime.OUTSTANDING
        assert first <= last <= taken <= min(ended, default=taken)
    for name in ("ServingRuntime.submit", "  RegisteredModel.admit",
                 "  RequestQueue.put", "ServingRuntime._execute",
                 "  Future.set_result", "the rest of process CPU"):
        assert f"\n{name} " in out
    assert "cProfile, the submitting thread" in out
    assert out.count("tottime") == 2
    workers = out.split(f"cProfile, the {dispatchers} dispatcher thread(s)")[1]
    assert "function calls" in workers


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_runtime_open_loop_smoke(executor, capsys):
    profile_runtime.main(["--executor", executor, "--smoke", "--rate", "300"])
    out = capsys.readouterr().out
    count = round(300 * profile_runtime.OPEN_SECONDS / 4)
    assert f"open loop: {count} requests at 300/s\n" in out
    p50, p99 = (
        float(out.split(f" {label} ")[1].split(" ms")[0]) for label in ("p50", "p99")
    )
    assert 0.0 < p50 <= p99
    wait = float(out.split("queue wait: p50 ")[1].split(" ms")[0])
    assert 0.0 <= wait
    batches = int(out.split("batches: ")[1].split(",")[0])
    assert 1 <= batches <= count
    closed = ast.literal_eval(out.split("closed by ")[1].split("\n")[0])
    assert set(closed) == {"rows", "quiet", "sparse", "deadline", "closed"}
    assert sum(closed.values()) == batches
    check_peak_rss(out, executor)
    assert "tottime" not in out


def test_inline_smoke(capsys):
    profile_runtime.main(["--inline", "--smoke", "--top", "3"])
    out = capsys.readouterr().out
    count = profile_runtime.INLINE_REQUESTS // 3
    rows = profile_runtime.INLINE_ROWS // 32
    assert f"inline: {count} requests of {rows} rows, nn and gmm alternating\n" in out
    rate = out.split("window: wall ")[1].split("; ")[1].split(" rows/s")[0]
    assert float(rate.replace(",", "")) > 0
    layers = out.split("inside the row above)\n")[1].split("\n\n")[0].splitlines()
    ms = {line[:40].strip(): float(line[40:].split()[0]) for line in layers}
    assert list(ms) == [
        "ModelService.predict", "DedupPlan.for_batch", "PartialCache.get_many",
        "DimensionDedup.gather", "predictor.posteriors",
        "MLP.forward_from_first_preactivation", "the rest of predict",
    ]
    assert ms["ModelService.predict"] > 0 and ms["PartialCache.get_many"] > 0
    # a warm network request expands its partials inside the cache's take
    assert ms["DimensionDedup.gather"] == 0
    assert "cProfile, one warm window" in out and out.count("tottime") == 1


@pytest.mark.parametrize("window", ["update_mix", "budget_tiered"])
def test_inline_rebuild_window_smoke(window, capsys):
    profile_runtime.main(["--inline", "--smoke", "--top", "3", "--window", window])
    out = capsys.readouterr().out
    rate = out.split("window: wall ")[1].split("; ")[1].split(" rows/s")[0]
    assert float(rate.replace(",", "")) > 0
    layers = out.split("inside the row above)\n")[1].split("\n\n")[0].splitlines()
    ms = {line[:40].strip(): float(line[40:].split()[0]) for line in layers}
    rebuild = ["DimensionLookup.features_for", "BufferPool.read_rows",
               "GMMPartialBuilder.compute"]
    assert list(ms)[-10:] == [
        "ModelService.predict", "DedupPlan.for_batch", "PartialCache.get_many",
        *rebuild, "DimensionDedup.gather", "predictor.posteriors",
        "MLP.forward_from_first_preactivation", "the rest of predict",
    ]
    if window == "update_mix":
        c = profile_runtime.UPDATE_MIX
        assert out.startswith(
            f"inline: {c['cycles_per_window'] // 3} cycles of "
            f"{c['reads_per_cycle']} reads of {c['request_rows'] // 32} rows"
        )
        assert list(ms)[:2] == ["Database.update_rows", "ModelMaintainer.flush"]
        # every flush swaps the mixture, so its partials are rebuilt
        # from rows read through the pool
        assert min(ms[name] for name in rebuild) > 0
    else:
        c = profile_runtime.BUDGET_TIERED
        assert out.startswith(
            f"inline: {c['requests_per_window'] // 3} requests of "
            f"{c['request_rows'] // 32} rows, Zipf({c['zipf']}) R1 keys"
        )
    assert "cProfile, one warm window" in out and out.count("tottime") == 1


def test_window_needs_inline():
    with pytest.raises(SystemExit):
        profile_runtime.main(["--window", "update_mix", "--smoke"])


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
    c = workloads.SHAPES["full"]["runtime_thread_window"]
    assert (c["sizes"], c["outstanding"], c["requests_per_window"]) == (
        profile_runtime.SIZES, profile_runtime.OUTSTANDING,
        profile_runtime.REQUESTS,
    )
    c = workloads.SHAPES["full"]["serve_batch_warm"]
    assert (c["request_rows"], c["requests_per_window"]) == (
        profile_runtime.INLINE_ROWS, profile_runtime.INLINE_REQUESTS,
    )
    for name, copied in (("serve_update_mix", profile_runtime.UPDATE_MIX),
                         ("serve_budget_tiered", profile_runtime.BUDGET_TIERED)):
        c = workloads.SHAPES["full"][name]
        assert {key: c[key] for key in copied} == copied
    c = workloads.SHAPES["full"]["runtime_process_open"]
    assert (c["sizes"], c["window_seconds"]) == (
        profile_runtime.OPEN_SIZES, profile_runtime.OPEN_SECONDS,
    )
