"""tools/regression_gate.py and tools/bench_summary.py: one gate over
ratios — driven through main() exactly as the nightly job runs them —
and the committed histories and nightly paths they rely on."""

import json
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_summary  # noqa: E402
import regression_gate  # noqa: E402
from bench_summary import HISTORIES, SCHEMA_VERSION  # noqa: E402

OVERHEAD_RAW = "telemetry_overhead.json"
OVERHEAD, (OVERHEAD_KEY,) = HISTORIES[OVERHEAD_RAW]


def run(raw_name: str, stamp: float, value: float = 1.0) -> dict:
    """A payload of ``raw_name``'s bench with every mapped ratio at
    ``value``."""
    _, keys = HISTORIES[raw_name]
    return {
        "bench": raw_name.removesuffix(".json"),
        "generated_at": stamp,
        "params": {},
        "ratios": {key: value for key in keys},
    }


def write_history(histories: Path, raw_name: str, runs: list[dict],
                  schema_version: int = SCHEMA_VERSION) -> None:
    name, _ = HISTORIES[raw_name]
    histories.joinpath(name).write_text(json.dumps({
        "schema_version": schema_version,
        "bench": raw_name.removesuffix(".json"),
        "runs": runs,
        "summary": {},
    }))


def write_fresh(results: Path, payload: dict) -> None:
    results.joinpath(f"{payload['bench']}.json").write_text(
        json.dumps(payload)
    )


@pytest.fixture
def dirs(tmp_path):
    """Every mapped history committed with three runs at ratio 1.0."""
    results = tmp_path / "results"
    histories = tmp_path / "histories"
    results.mkdir()
    histories.mkdir()
    for raw_name in HISTORIES:
        write_history(
            histories, raw_name,
            [run(raw_name, float(stamp)) for stamp in range(3)],
        )
    return results, histories


def gate(results, histories, *extra) -> int:
    return regression_gate.main([
        "--results-dir", str(results),
        "--histories-dir", str(histories),
        *extra,
    ])


class TestGate:
    def test_missing_history_fails(self, dirs, capsys):
        results, histories = dirs
        histories.joinpath(OVERHEAD).unlink()
        assert gate(results, histories) == 1
        assert f"{OVERHEAD}: mapped but not committed" in (
            capsys.readouterr().out
        )

    def test_empty_histories_dir_fails(self, tmp_path):
        assert gate(tmp_path, tmp_path) == 1

    def test_ratio_within_tolerance_passes(self, dirs, capsys):
        results, histories = dirs
        write_fresh(results, run(OVERHEAD_RAW, 99.0, value=0.6))
        assert gate(results, histories, "--tolerance", "0.5") == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_ratio_below_tolerance_fails(self, dirs, capsys):
        results, histories = dirs
        write_fresh(results, run(OVERHEAD_RAW, 99.0, value=0.4))
        assert gate(results, histories, "--tolerance", "0.5") == 1
        assert f"REGRESSION {OVERHEAD}.{OVERHEAD_KEY}" in (
            capsys.readouterr().out
        )

    def test_higher_ratio_never_regresses(self, dirs):
        results, histories = dirs
        write_fresh(results, run(OVERHEAD_RAW, 99.0, value=50.0))
        assert gate(results, histories, "--tolerance", "0") == 0

    def test_thin_history_does_not_gate(self, dirs, capsys):
        results, histories = dirs
        write_history(histories, OVERHEAD_RAW, [
            run(OVERHEAD_RAW, 0.0), run(OVERHEAD_RAW, 1.0),
        ])
        write_fresh(results, run(OVERHEAD_RAW, 99.0, value=0.01))
        assert gate(results, histories) == 0
        assert "not gating" in capsys.readouterr().out

    def test_fresh_stamp_excluded_from_its_own_baseline(self, dirs):
        results, histories = dirs
        # The summary step already appended the fresh (regressed) run;
        # gating right after must not compare the run against itself,
        # and the three runs left still gate.
        fresh = run(OVERHEAD_RAW, 99.0, value=0.1)
        write_history(histories, OVERHEAD_RAW, [
            *(run(OVERHEAD_RAW, float(stamp)) for stamp in range(3)),
            fresh,
        ])
        write_fresh(results, fresh)
        assert gate(results, histories) == 1

    def test_unknown_schema_fails(self, dirs, capsys):
        results, histories = dirs
        write_history(
            histories, OVERHEAD_RAW,
            [run(OVERHEAD_RAW, float(stamp)) for stamp in range(3)],
            schema_version=999,
        )
        assert gate(results, histories) == 1
        assert "refusing to gate" in capsys.readouterr().out

    def test_fresh_run_missing_a_mapped_ratio_fails(self, dirs, capsys):
        results, histories = dirs
        fresh = run(OVERHEAD_RAW, 99.0)
        fresh["ratios"] = {"renamed": 1.0}
        write_fresh(results, fresh)
        assert gate(results, histories) == 1
        assert "mapped" in capsys.readouterr().out

    def test_nothing_fresh_passes(self, dirs, capsys):
        results, histories = dirs
        assert gate(results, histories) == 0
        assert "skipped" in capsys.readouterr().out


class TestBenchSummary:
    @staticmethod
    def summarize(results, histories, *extra) -> dict:
        assert bench_summary.main([
            "--results-dir", str(results), "--out-dir", str(histories),
            *extra,
        ]) == 0
        return json.loads(histories.joinpath(OVERHEAD).read_text())

    def test_append_is_idempotent_by_stamp(self, tmp_path):
        write_fresh(tmp_path, run(OVERHEAD_RAW, 7.0, value=1.25))
        self.summarize(tmp_path, tmp_path)
        history = self.summarize(tmp_path, tmp_path)
        assert history["schema_version"] == SCHEMA_VERSION
        assert len(history["runs"]) == 1
        assert history["summary"]["median"] == {OVERHEAD_KEY: 1.25}

    def test_keep_caps_retained_runs(self, tmp_path):
        for stamp in range(5):
            write_fresh(tmp_path, run(OVERHEAD_RAW, float(stamp)))
            history = self.summarize(tmp_path, tmp_path, "--keep", "3")
        assert [r["generated_at"] for r in history["runs"]] == [
            2.0, 3.0, 4.0,
        ]

    def test_unknown_schema_is_not_rewritten(self, tmp_path):
        write_history(tmp_path, OVERHEAD_RAW, [], schema_version=1)
        write_fresh(tmp_path, run(OVERHEAD_RAW, 7.0))
        assert bench_summary.main([
            "--results-dir", str(tmp_path), "--out-dir", str(tmp_path),
        ]) == 1


class TestCommittedHistories:
    """What the nightly gate reads is in the repository."""

    @pytest.mark.parametrize("raw_name", sorted(HISTORIES))
    def test_history_committed_with_current_schema_and_three_runs(
        self, raw_name
    ):
        name, keys = HISTORIES[raw_name]
        path = REPO_ROOT / name
        assert path.exists(), f"{name} is mapped but not committed"
        history = json.loads(path.read_text())
        assert history["schema_version"] == SCHEMA_VERSION
        assert len(history["runs"]) >= regression_gate.MIN_RUNS
        # Every run flattens to exactly its bench's ratio keys.
        for entry in history["runs"]:
            assert sorted(entry["ratios"]) == sorted(keys)
            assert all(value > 0 for value in entry["ratios"].values())

    def test_committed_histories_are_exactly_the_mapped_ones(self):
        committed = {path.name for path in REPO_ROOT.glob("BENCH_*.json")}
        assert committed == {name for name, _ in HISTORIES.values()}

    def test_nightly_names_only_existing_paths(self):
        workflow = REPO_ROOT / ".github" / "workflows" / "nightly-bench.yml"
        named = set(re.findall(
            r"(?:benchmarks|tools)/[\w./*-]*[\w*]", workflow.read_text()
        ))
        # benchmarks/results/ is what the job writes, not what it runs.
        paths = {p for p in named if not p.startswith("benchmarks/results")}
        assert "tools/regression_gate.py" in paths
        for path in sorted(paths):
            assert list(REPO_ROOT.glob(path)), f"{path} does not exist"
