"""The telemetry-verified scenario suite, run as a benchmark.

Executes every committed scenario in ``benchmarks/scenarios/`` through
:class:`repro.scenarios.ScenarioRunner` — N hermetic trials each, with
mid-flight adaptations (budget cuts, popularity flips, update storms)
— and fails if any telemetry assertion fails in any trial.  Those
assertions are the scenarios' gate; the cross-trial medians land in
``benchmarks/results/scenarios.txt`` for reading, with no history.

Run standalone:  PYTHONPATH=src python benchmarks/bench_scenarios.py
"""

import sys
from pathlib import Path

from repro.scenarios import check_result, load_scenarios, run_scenario

SCENARIOS_DIR = Path(__file__).parent / "scenarios"


def run_scenario_suite():
    results = [
        run_scenario(spec) for spec in load_scenarios(SCENARIOS_DIR)
    ]
    return results


def format_table(results):
    lines = [
        "== scenario suite: telemetry-verified adaptation runs ==",
        f"{'scenario':>20}  {'trials':>6}  {'pass':>4}  "
        f"{'rows/s':>10}  {'hit rate':>8}  {'q.wait p95':>10}  "
        f"{'x-evict':>8}",
    ]
    for result in results:
        summary = result.summary

        def cell(key, fmt, default="-"):
            entry = summary.get(key)
            return fmt.format(entry["median"]) if entry else default

        lines.append(
            f"{result.spec.name:>20}  {len(result.trials):>6}  "
            f"{'yes' if result.passed else 'NO':>4}  "
            f"{cell('scenario.rows_per_sec', '{:,.0f}'):>10}  "
            f"{cell('scenario.hit_rate', '{:.1%}'):>8}  "
            f"{cell('scenario.queue_wait_p95_s', '{:.4f}s'):>10}  "
            f"{cell('scenario.cross_evictions', '{:,.0f}'):>8}"
        )
    lines.append(
        "   medians over each scenario's trials; assertions are "
        "windowed MetricsSnapshot deltas (docs/scenarios.md)"
    )
    return "\n".join(lines)


def emit(results, results_dir: Path) -> str:
    text = format_table(results)
    with open(results_dir / "scenarios.txt", "w") as handle:
        handle.write(text + "\n")
    return text


def test_scenario_suite(benchmark, results_dir):
    results = benchmark.pedantic(run_scenario_suite, rounds=1, iterations=1)
    text = emit(results, results_dir)
    sys.__stdout__.write("\n" + text + "\n")
    # Acceptance: every telemetry assertion in every trial held.
    for result in results:
        check_result(result)


if __name__ == "__main__":
    outcome = run_scenario_suite()
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    print(emit(outcome, results_dir))
    for result in outcome:
        check_result(result)
    print("acceptance ok: every scenario assertion held")
