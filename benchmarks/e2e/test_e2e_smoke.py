"""Tier-1 smoke test of the end-to-end benchmark.

``run.py --smoke`` (shapes / ~50, one window per pass) must complete
all seven workloads with both passes, emit exactly the metric and
workload names ``BENCHMARK.json`` declares, and fail no operation; the
oracle must catch a corrupted output.  Timings are not asserted — the
numbers of a smoke run gate nothing.
"""

import ctypes
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SUMMARY = ROOT / "benchmarks" / "results" / "e2e" / "summary.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
EXTRA_END_TO_END = {"lat_p99_ms", "update_visible_ms", "failed_frac"}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _load(name: str):
    """A module of this directory, under a name of its own."""
    alias = f"e2e_{name}"
    module_spec = importlib.util.spec_from_file_location(
        alias, HERE / f"{name}.py"
    )
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[alias] = module           # dataclasses resolve the module
    try:
        module_spec.loader.exec_module(module)
    finally:
        del sys.modules[alias]
    return module


@pytest.mark.parametrize("seed", [0, 1])
def test_smoke_emits_declared_names_and_fails_nothing(seed):
    spec = _spec()
    done = _run("--smoke", "--seed", str(seed))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    totals = json.loads(done.stdout.strip().splitlines()[-1])
    assert totals["correct"] and totals["failed"] == 0
    summary = json.loads(SUMMARY.read_text())
    assert summary["smoke"] is True and summary["seed"] == seed
    declared = [w["name"] for w in spec["workloads"]]
    assert list(summary["workloads"]) == declared
    for name, record in summary["workloads"].items():
        assert record["failed"] == 0, (name, record["reasons"])
        assert record["attempted"] > 0
        assert record["per_layer"]["failed_frac"] == 0.0
        assert record["end_to_end"]["failed_frac"]["value"] == 0.0
        # Issue 12's end-to-end metrics beyond the declared ones ride
        # along where a workload has them; nothing else may.
        assert set(record["end_to_end"]) - EXTRA_END_TO_END == {
            m["name"] for m in spec["end_to_end"]
        }, name
        assert set(record["per_layer"]) == {
            m["name"] for m in spec["per_layer"]
        }, name
        assert len(record["inputs_sha256"]) == 64
        for metric in spec["end_to_end"]:
            assert record["end_to_end"][metric["name"]]["value"] > 0, (
                name, metric["name"]
            )
    # Only the governed workload may ever trip the budget governor.
    for name, record in summary["workloads"].items():
        if name != "serve_budget_tiered":
            assert record["per_layer"]["fx.store.sweeps"] == 0, name


def test_a_pass_leaves_no_process_behind():
    """The process executor's shared memory starts ``multiprocessing``'s
    resource tracker, which used to outlive ``run.py`` unreaped.  As
    the sub-reaper, this process adopts whatever a pass orphans."""
    children = _load("run").children
    prctl, set_child_subreaper = ctypes.CDLL(None).prctl, 36
    if prctl(set_child_subreaper, 1, 0, 0, 0) != 0:
        pytest.skip("no PR_SET_CHILD_SUBREAPER on this kernel")
    before = set(children())
    try:
        done = _run("--smoke", "--workload", "runtime_process_open")
        orphans = set(children()) - before
    finally:
        prctl(set_child_subreaper, 0, 0, 0, 0)
    for pid in orphans:
        os.waitpid(pid, 0)       # it ends once run.py has: reap it
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert not orphans


def test_declared_names_are_well_formed():
    spec = _spec()
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in spec[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in spec["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_compare_refuses_a_smoke_summary(tmp_path):
    smoke = tmp_path / "smoke.json"
    smoke.write_text(json.dumps({"smoke": True, "workloads": {}}))
    done = _run("--compare", str(smoke), str(smoke))
    assert done.returncode == 2
    assert "smoke" in done.stdout


def test_compare_gates_failures_and_the_extra_metrics(tmp_path):
    spec = _spec()
    values = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
    values["update_visible_ms"] = {"value": 10.0}

    def summary(path, failed=0, **changed):
        record = {
            "failed": failed,
            "end_to_end": {**values, **{
                name: {"value": value} for name, value in changed.items()
            }},
        }
        path.write_text(json.dumps({"workloads": {"serve_update_mix": record}}))
        return str(path)

    parent = summary(tmp_path / "parent.json")
    assert _run("--compare", parent, parent).returncode == 0
    failed = summary(tmp_path / "failed.json", failed=1)
    assert _run("--compare", parent, failed).returncode == 1
    slower = summary(tmp_path / "slower.json", update_visible_ms=14.0)
    done = _run("--compare", parent, slower)
    assert done.returncode == 1 and "update_visible_ms" in done.stdout
    faster = summary(tmp_path / "faster.json", update_visible_ms=5.0)
    assert _run("--compare", parent, faster).returncode == 0


def test_oracle_counts_a_corrupted_output_as_failed():
    oracle = _load("oracle")

    class Sum:
        """Stands in for a dense model: one output per wide row."""

        def predict(self, wide):
            return wide.sum(axis=1, keepdims=True)

    rng = np.random.default_rng(0)
    dims = [rng.normal(size=(10, 3))]
    requests = [
        oracle.Request("nn", rng.normal(size=(4, 2)), [rng.integers(0, 10, 4)])
        for _ in range(3)
    ]
    dense = oracle.DenseOracle(Sum(), dims)
    served = [dense.predict(r.x, r.fks) for r in requests]

    clean = oracle.Tally()
    oracle.check_requests(
        clean, {"nn": dense}, requests, served, where="test"
    )
    assert (clean.attempted, clean.failed) == (3, 0)

    corrupted = [out.copy() for out in served]
    corrupted[1][2, 0] += 1e-6
    corrupted[2] = None                      # a reply that never came
    tally = oracle.Tally()
    oracle.check_requests(
        tally, {"nn": dense}, requests, corrupted, where="test"
    )
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failed_frac > 0
