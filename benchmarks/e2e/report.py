"""Metric assembly, printing and the agree/compare rule.

End-to-end metrics come from the untraced windows only; per-layer
metrics from the traced windows' self times (per traced window, so runs
with different window counts compare) and from deltas of the program's
public counters taken at the traced pass's boundaries.  The names and
units here must equal ``BENCHMARK.json``'s — ``run.py`` refuses to
report when they drift.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

# ``lat_p99_ms`` needs ten samples beyond the percentile.
P99_MIN_SAMPLES = 1000
# Issue 12 lists nine end-to-end metrics; the driver's contract wants
# every end-to-end metric from every workload and never 0, which these
# three cannot give (two exist on some workloads only, the third is 0
# on a correct program).  ``BENCHMARK.json`` declares them per-layer;
# they are still measured in the untraced windows, and ``--agree`` /
# ``--compare`` print them all: any failed operation is a miss,
# ``update_visible_ms`` is gated by the bound here, and ``lat_p99_ms``
# is shown ungated (bound None) — ten runs of one commit spread by 0.2
# to several times its median on this VM, so the issue's rule moves it
# off the gates.
EXTRA_END_TO_END = ("lat_p99_ms", "update_visible_ms", "failed_frac")
EXTRA_BOUNDS = {"update_visible_ms": 0.25, "lat_p99_ms": None}
# Timings with one sample per set-up, fit, window or update cycle.
TIMINGS = (
    "setup_s", "gmm_fit_s", "nn_fit_s", "rows_per_s", "lat_p50_ms",
    "update_visible_ms",
)

# span name -> per-layer metric holding its summed self time per window
BUSY = {
    "storage.buffer.get_page": "storage.buffer.get_page.busy_s",
    "storage.update_rows": "storage.update_rows.busy_s",
    "join.batches": "join.batches.busy_s",
    "join.materialize": "join.materialize.busy_s",
    "linalg": "linalg.busy_s",
    "gmm.estep": "gmm.estep.busy_s",
    "gmm.mstep": "gmm.mstep.busy_s",
    "nn.batch_gradients": "nn.batch_gradients.busy_s",
    "nn.activation": "nn.activation.busy_s",
    "fx.dedup.plan": "fx.dedup.plan.busy_s",
    "fx.gather": "fx.gather.busy_s",
    "fx.store.enforce_budget": "fx.store.enforce_budget.busy_s",
    "serve.cache.get_many": "serve.cache.get_many.busy_s",
    "serve.partials.compute": "serve.partials.compute.busy_s",
    "serve.predictor.head": "serve.predictor.head.busy_s",
    "serve.service.overhead": "serve.service.overhead_s",
    "runtime.submit": "runtime.submit.busy_s",
    "runtime.planner.plan": "runtime.planner.plan.busy_s",
    "maintain.flush": "maintain.flush.busy_s",
    "maintain.swap": "maintain.swap.busy_s",
}
# The benchmark's own calls into the public API: roots of a training
# window's span tree, and how a refit under ``maintain.flush`` shows.
CORE_SPANS = ("core.fit_gmm", "core.fit_nn")
# reference-arm metrics: 0 on workloads that have no such arm
REFERENCE = (
    "linalg.gemm_floor_s",
    *(f"core.fit_{kind}.{arm}_s" for kind in ("gmm", "nn") for arm in "FMS"),
    "fx.store.unbounded.rows_per_s",
    "fx.store.drop.rows_per_s",
    "serve.materialized.rows_per_s",
    "runtime.open.max_rate_ok",
    "runtime.open.lo.lat_p99_ms",
    "runtime.open.hi.lat_p99_ms",
)


@dataclass
class Stat:
    """A metric's value with the quartiles and count of its samples, and
    the same statistic of the samples as measured (``raw``) where the
    value is one at the reference host speed."""

    value: float
    q1: float
    q3: float
    n: int
    raw: float | None = None

    @classmethod
    def of(cls, samples) -> "Stat":
        """The median of ``samples`` as the value."""
        samples = [float(s) for s in samples]
        if len(samples) == 1:
            return cls(samples[0], samples[0], samples[0], 1)
        # Two samples would put the quartiles outside the samples.
        q1, median, q3 = (
            min(max(q, min(samples)), max(samples))
            for q in statistics.quantiles(samples, n=4)
        )
        return cls(median, q1, q3, len(samples))


def _pooled(windows) -> list[float]:
    return [
        s for w in windows for samples in w.latencies.values() for s in samples
    ]


def window_samples(setups, windows, inline: bool) -> dict:
    """The samples behind each timing — one per set-up, per fit, per
    window — as measured (``raw``) and at the reference host speed
    (``normalised``: seconds / the slowdown probed around the section,
    rates x it; ``probe.py``).  Set-ups and fits are normalised on
    every workload; window rates and latencies only on the inline
    workloads, where the caller's thread does all the work: behind the
    runtime, requests wait on timers, queues and other processes, and
    their latency does not scale with the host's speed (ten runs of
    ``runtime_thread_window`` spread by 0.07 raw, 0.13 normalised).

    A window's latency sample is its median per-request latency taken
    per model and averaged over the models the workload calls: a 50/50
    nn/gmm mix has two latency modes, and a pooled median would sit on
    the gap between them."""
    raw = {name: [] for name in TIMINGS}
    slow = {name: [] for name in TIMINGS}
    for wall, slowdown, fits in setups:
        sections = [("setup_s", wall, slowdown)] + [
            (f"{kind}_fit_s", *fit) for kind in fits for fit in fits[kind]
        ]
        for name, seconds, slowdown in sections:
            raw[name].append(seconds)
            slow[name].append(slowdown)
    for w in windows:
        for kind, seconds in w.fits.items():
            raw[f"{kind}_fit_s"] += seconds
            slow[f"{kind}_fit_s"] += [w.slowdown] * len(seconds)
        raw["rows_per_s"].append(w.rows / w.serve_wall)
        raw["lat_p50_ms"].append(1e3 * statistics.fmean(
            statistics.median(v) for v in w.latencies.values() if v
        ))
        raw["update_visible_ms"] += [1e3 * s for s in w.update_visible]
        for name in ("rows_per_s", "lat_p50_ms"):
            slow[name].append(w.slowdown if inline else 1.0)
        slow["update_visible_ms"] += [w.slowdown] * len(w.update_visible)
    return {
        "raw": raw,
        "slowdown": slow,
        "normalised": {
            name: [
                x * s if name == "rows_per_s" else x / s
                for x, s in zip(raw[name], slow[name])
            ]
            for name in TIMINGS
        },
    }


def end_to_end(samples, windows, peak_rss_bytes, tally) -> dict:
    """Issue 12's end-to-end metrics of one pass's untraced windows; the
    ones a workload does not have are left out.

    Every timing is the **median** of its samples at the reference host
    speed: one sample per set-up, per fit, per window, per update
    cycle, their count fixed by ``--seconds`` alone.  (On raw samples
    the better quartile repeats better than the median — slow phases
    only ever add time; once the probe has taken the host's speed out,
    the median is as steady in a noisy hour and steadier in a calm one:
    README, Calibration.)  ``lat_p99_ms`` pools every request of the
    pass, as measured.
    """
    rss = peak_rss_bytes / float(1 << 20)
    out = {}
    for name in TIMINGS:
        if samples["raw"][name]:
            out[name] = Stat.of(samples["normalised"][name])
            out[name].raw = Stat.of(samples["raw"][name]).value
    out["peak_rss_mb"] = Stat(rss, rss, rss, 1)
    out["failed_frac"] = Stat(tally.failed_frac, 0.0, 0.0, tally.attempted)
    pooled = _pooled(windows)
    if len(pooled) >= P99_MIN_SAMPLES:
        ms = np.asarray(pooled) * 1e3
        out["lat_p99_ms"] = Stat(
            float(np.percentile(ms, 99)), float(np.percentile(ms, 25)),
            float(np.percentile(ms, 75)), len(pooled),
        )
    return out


def _percentile(samples, q: float) -> float:
    return float(np.percentile(samples, q)) if len(samples) else 0.0


def per_layer(
    *, recorder, inline, untraced, traced, before, after, references, e2e,
) -> dict[str, float]:
    """Every per-layer metric of one workload (0 where a layer is idle)."""
    count = max(1, len(traced))
    busy = recorder.self_times()
    calls = recorder.counts()
    out = {
        metric: busy.get(span, 0.0) / count for span, metric in BUSY.items()
    }
    out["join.batches.count"] = calls.get("join.batches", 0) / count
    out["nn.steps"] = calls.get("nn.batch_gradients", 0) / count
    out["maintain.refits"] = float(sum(
        1 for name, _, _, parent, window in recorder.spans
        if window >= 0 and parent is not None and name in CORE_SPANS
        and recorder.spans[parent][0] == "maintain.flush"
    ))

    def delta(key: str) -> float:
        return float(after.get(key, 0) - before.get(key, 0))

    def ratio(hit: str, miss: str) -> float:
        total = delta(hit) + delta(miss)
        return delta(hit) / total if total else 0.0

    out["storage.buffer.pages_read"] = delta("pages_read") / count
    out["storage.buffer.hit_ratio"] = ratio("buffer_hits", "buffer_misses")
    out["serve.cache.hit_ratio"] = ratio("cache_hits", "cache_misses")
    out["serve.cache.misses"] = delta("cache_misses") / count
    out["serve.cache.evictions"] = delta("cache_evictions") / count
    out["serve.cache.invalidated"] = delta("cache_invalidated") / count
    out["fx.store.sweeps"] = delta("store_sweeps") / count
    out["fx.store.demotions"] = delta("store_demotions") / count
    out["fx.store.promotions"] = delta("store_promotions") / count
    out["fx.store.resident_mb"] = after.get("gauge_resident_mb", 0.0)
    out["fx.store.spilled_mb"] = after.get("gauge_spilled_mb", 0.0)
    out["runtime.batches"] = delta("batches") / count
    out["runtime.batch.rows_mean"] = (
        delta("batch_rows") / delta("batches") if delta("batches") else 0.0
    )
    out["runtime.planner.factorized_share"] = (
        delta("planned_factorized") / delta("planned")
        if delta("planned") else 0.0
    )
    out["runtime.scatter.busy_s"] = delta("scatter_s") / count
    out["runtime.gather.busy_s"] = delta("gather_s") / count
    out["runtime.queue.max_depth"] = after.get("gauge_queue_max_depth", 0.0)
    waits_ms = np.asarray(recorder.queue_waits) * 1e3
    out["runtime.queue.wait_ms_p50"] = _percentile(waits_ms, 50)
    out["runtime.queue.wait_ms_p99"] = _percentile(waits_ms, 99)
    out["maintain.drift"] = after.get("gauge_drift", 0.0)

    last = traced[-1].extra if traced else {}
    out["gmm.iterations"] = last.get("gmm.iterations", 0.0)
    out["fx.dedup.ratio"] = last.get(
        "fx.dedup.ratio", after.get("gauge_dedup_ratio", 0.0)
    )
    for name in REFERENCE:
        out[name] = float(references.get(name, 0.0))
    for kind in ("gmm", "nn"):
        arms = [
            references[f"core.fit_{kind}.{arm}_s"] for arm in "FMS"
            if f"core.fit_{kind}.{arm}_s" in references
        ]
        window_fits = [s for w in untraced for s in w.fits.get(kind, [])]
        out[f"core.fit_{kind}.auto_regret"] = (
            statistics.median(window_fits) / min(arms)
            if arms and window_fits else 0.0
        )

    # Issue 12's end-to-end metrics that the driver's contract cannot
    # carry as gates (0 on a workload that does not have them).
    for name in EXTRA_END_TO_END:
        out[name] = e2e[name].value if name in e2e else 0.0
    late = [_percentile(np.asarray(w.late) * 1e3, 99) for w in untraced]
    out["runtime.open.late_ms_p99"] = statistics.median(late)

    untraced_wall = statistics.median(w.wall for w in untraced)
    traced_wall = statistics.median(w.wall for w in traced)
    out["bench.trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    walls = [w.wall for w in untraced]
    out["bench.window_spread_frac"] = (max(walls) - min(walls)) / untraced_wall
    out["bench.unattributed_frac"] = (
        max(0.0, 1.0 - recorder.root_seconds() / sum(w.wall for w in traced))
        if inline else 0.0
    )
    return out


# -- printing -----------------------------------------------------------------


def print_workload(record: dict, units: dict) -> None:
    print(
        f"== {record['workload']} (seed {record['seed']}, "
        f"{record['windows']} windows, {record['wall_s']:.1f} s wall, "
        f"{record['failed']}/{record['attempted']} operations failed)"
    )
    for name, stat in record["end_to_end"].items():
        raw = "" if stat["raw"] is None else f"  raw {stat['raw']:.6g}"
        print(
            f"  {name:<34} {stat['value']:>14.6g} {units[name]:<7}"
            f" q1 {stat['q1']:.6g}  q3 {stat['q3']:.6g}  n={stat['n']}{raw}"
        )
    for name, value in record.get("per_layer", {}).items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    for reason, count in record["reasons"].items():
        print(f"  FAILED x{count}: {reason}")


# -- the agree / compare rule -------------------------------------------------


def worsening(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative: better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def gates(spec: dict) -> list[dict]:
    """Every gated end-to-end metric: ``BENCHMARK.json``'s with their
    bounds, then the extra ones of this file."""
    return spec["end_to_end"] + [
        {"name": name, "better": "lower", "bound": bound}
        for name, bound in EXTRA_BOUNDS.items()
    ]


def side(records: list[dict]) -> dict:
    """One side of a comparison from its runs of one workload: the
    median of each end-to-end metric over the runs that report it, and
    the operations that failed in any of them."""
    names = {name for record in records for name in record["end_to_end"]}
    return {
        "failed": sum(record["failed"] for record in records),
        "values": {
            name: statistics.median(
                record["end_to_end"][name]["value"]
                for record in records if name in record["end_to_end"]
            )
            for name in names
        },
    }


def compare(first: dict, second: dict, spec: dict, *, same_code: bool) -> int:
    """A row per (workload, gated metric) the workload reports; the
    number of misses.  ``first`` / ``second`` map workload -> ``side()``.

    Parent against change (``--compare``): ``ok`` unless the second side
    is worse than the first by more than the metric's bound.  Two sets
    of runs of the same code (``--agree``): a difference beyond the
    bound in either direction is ``unresolved: spread > bound`` — that
    pair cannot gate a change.  A failed operation on either side is a
    miss whatever the timings say.
    """
    misses = 0
    print(f"{'workload':<24}{'metric':<19}{'first':>12}{'second':>12}"
          f"{'change':>9}{'bound':>7}  verdict")
    for name, a in first.items():
        b = second.get(name)
        if b is None:
            print(f"{name:<24}missing from the second summary")
            misses += 1
            continue
        failed = a["failed"] + b["failed"]
        misses += bool(failed)
        print(
            f"{name:<24}{'failed':<19}{a['failed']:>12}{b['failed']:>12}"
            f"{'':>9}{'0':>7}  "
            + ("failed operations" if failed else "ok")
        )
        for metric in gates(spec):
            x, y = (s["values"].get(metric["name"]) for s in (a, b))
            if x is None and y is None:
                continue              # not a metric of this workload
            if x is None or y is None:
                misses += 1
                print(f"{name:<24}{metric['name']:<19}on one side only")
                continue
            worse = worsening(metric, x, y)
            bound = metric["bound"]
            if bound is None:
                ok, verdict = True, "not gated"
            elif same_code:
                ok = abs(worse) <= bound
                verdict = "ok" if ok else "unresolved: spread > bound"
            else:
                ok = worse <= bound
                verdict = "ok" if ok else "worse by more than the bound"
            misses += not ok
            print(
                f"{name:<24}{metric['name']:<19}{x:>12.5g}{y:>12.5g}"
                f"{worse:>+9.1%}{'' if bound is None else format(bound, '.0%'):>7}"
                f"  {verdict}"
            )
    return misses
