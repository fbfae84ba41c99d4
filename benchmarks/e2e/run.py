"""End-to-end + per-layer benchmark of factorized training and serving.

One pass of one workload — the form ``BENCHMARK.json``'s driver uses;
the result object is the last line of standard output::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no wrapper installed;
``--trace 1`` installs the outside-in tracer (``trace.py``) and reports
the per-layer metrics.  Everything else loops over that form, one child
process per pass, from the repository root::

    python3 benchmarks/e2e/run.py                       # all seven, both passes
    python3 benchmarks/e2e/run.py --workload serve_batch_warm --seed 3
    python3 benchmarks/e2e/run.py --agree               # do two sets of runs agree?
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --smoke               # shapes / ~50, in-process

Results land in ``benchmarks/results/e2e/``: ``summary.json`` and one
``trace_<workload>.json`` each.  ``README.md`` beside this file is the
glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = ROOT / "benchmarks" / "results" / "e2e"
SPEC_PATH = ROOT / "BENCHMARK.json"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
AGREE_RUNS = 3      # per workload and set; single runs do not resolve 10 %
# glibc malloc: serve every request from one heap that only grows (no
# mmap, top padded by 256 MiB, never trimmed).  By default each
# multi-megabyte temporary is mapped on allocation, unmapped on free and
# faulted in again by the next one, and on this VM the price of a page
# fault swings 20x with the host: the same F-NN fit over 200k rows took
# 1.2-8.8 s (21k faults, 0.4-8 s of system time, user time 0.8 s
# throughout) and takes 0.92-0.93 s on a heap that is already resident.
# mallopt() parameter numbers are glibc's.
MALLOC_TUNING = {"MALLOC_MMAP_MAX_": (-4, 0),
                 "MALLOC_TOP_PAD_": (-2, 256 << 20),
                 "MALLOC_TRIM_THRESHOLD_": (-1, (1 << 31) - 1)}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def tune_malloc() -> bool:
    """Apply MALLOC_TUNING to this process (mallopt) and, through the
    environment, to worker processes spawned later.  False where the C
    library has no mallopt — the run proceeds, noisier."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    applied = True
    for var, (param, value) in MALLOC_TUNING.items():
        os.environ[var] = str(value)
        applied &= bool(mallopt(param, value))
    return applied


def bootstrap(workroot: Path) -> dict:
    """Pin BLAS to one thread (worker count is the only parallelism),
    steady the allocator, keep every temporary file inside the
    checkout, make ``repro`` and this directory importable.  Returns
    what took effect, for the summary."""
    applied = {
        "blas_pinned_before_numpy_import": "numpy" not in sys.modules,
        "malloc_tuned": tune_malloc(),
    }
    for var in BLAS_VARS:
        os.environ[var] = "1"
    workroot.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workroot)     # inherited by worker processes
    import tempfile

    tempfile.tempdir = None                  # re-read TMPDIR
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    # Spawned worker processes re-import repro from the environment.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + (
            [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
        )
    )
    return applied


def _pids() -> list:
    import multiprocessing

    return ["self"] + [c.pid for c in multiprocessing.active_children()]


def reset_peak_rss() -> bool:
    """Restart the kernel's RSS high-water mark of this process and its
    worker children at their current RSS."""
    try:
        for pid in _pids():
            with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as f:
                f.write("5")
    except OSError:
        return False      # the mark then covers the process's whole life
    return True


def peak_rss_bytes() -> int:
    """The high-water marks (``VmHWM``) of this process and its live
    worker children, summed: exact, where sampling ``statm`` missed the
    short peaks every other run."""
    total = 0
    for pid in _pids():
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) << 10
        except (OSError, ValueError, IndexError):
            pass                  # the child exited between list and read
    return total


def children() -> list:
    """Process ids whose parent is this process, zombies included."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue              # it ended between the listing and the read
        if int(fields[1]) == os.getpid():
            found.append(int(entry))
    return found


def _end(pid: int, patience: float = 5.0) -> None:
    """Ask ``pid`` to stop, kill it if it has not, and reap it."""
    try:
        os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + patience
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except (ProcessLookupError, ChildProcessError):
        pass                      # ended and reaped by whoever started it


def stop_children() -> None:
    """Stop every process this one started and wait until each has
    ended.  The process executor joins its own workers on ``close()``;
    what outlives it is ``multiprocessing``'s resource tracker (started
    by the first shared-memory segment), which otherwise ends only
    *after* this process has and is left behind unreaped.  It goes last:
    it exits once every holder of its pipe has, so a worker that
    survived ``close()`` must be gone first."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    for pid in children():
        if tracker is None or pid != tracker._pid:
            _end(pid)
    if tracker is not None:
        tracker._stop()           # closes its pipe and waits for it


def measure(workload, tally, *, count, first_index, recorder=None, rss=None):
    """``count`` windows of fixed work, each bracketed by the host-speed
    probe.  Inputs are drawn and outputs checked off the clock, around
    each window.  ``rss`` (a dict) gets the peak RSS of the first
    window — read before the window's outputs are verified: the
    oracle's memory is not the program's."""
    import probe

    windows = []
    for index in range(first_index, first_index + count):
        inputs = workload.make_window(index)
        watch = rss is not None and not rss
        if watch:
            rss["reset"] = reset_peak_rss()
        if recorder is not None:
            recorder.window = index
        before = probe.slowdown()
        try:
            window = workload.run_window(inputs, tally)
        finally:
            if recorder is not None:
                recorder.window = -1
        if watch:
            rss["bytes"] = peak_rss_bytes()
        window.slowdown = probe.between(before, probe.slowdown())
        workload.verify(inputs, window, tally)
        window.outputs = []
        windows.append(window)
    return windows


def run_pass(cls, *, seed, scale, seconds, traced, workroot) -> dict:
    """One pass of one workload; its record.

    Untraced (``--trace 0``): ``SETUP_REPS`` segments, each a set-up
    followed by its share of the windows, so the windows are spread over
    the whole run.  Traced (``--trace 1``): one set-up, half the windows
    untraced (the overhead reference), half with the wrappers installed,
    then the reference arms."""
    import probe
    import report
    import trace
    from oracle import Tally
    from workloads import SETUP_REPS, window_count

    started = time.perf_counter()
    smoke = scale == "smoke"
    count = 1 if smoke else window_count(cls.name, seconds)
    segments = 1 if smoke or traced else SETUP_REPS
    traced_count = (1 if smoke else count // 2) if traced else 0
    count = max(1, count - traced_count)
    tally = Tally()
    shared: dict = {}      # what depends on the seed alone outlives a set-up
    setups, untraced, rss = [], [], {}
    workload = None
    per_layer = {}
    try:
        for rep in range(segments):
            if workload is not None:
                workload.close()
                gc.collect()     # the closed set-up's caches sit in cycles
            workload = cls(seed, scale, workroot / f"{cls.name}-{rep}", shared)
            before = probe.slowdown()
            tick = time.perf_counter()
            workload.setup()
            wall = time.perf_counter() - tick - workload.probe_seconds
            setups.append((
                wall, probe.between(before, probe.slowdown()),
                workload.fit_seconds,
            ))
            trace.assert_untraced()
            windows = measure(
                workload, tally, first_index=len(untraced), rss=rss,
                count=count // segments + (rep < count % segments),
            )
            untraced += windows
        samples = report.window_samples(setups, untraced, cls.inline)
        e2e = report.end_to_end(samples, untraced, rss["bytes"], tally)
        if traced:
            recorder = trace.Recorder()
            workload.recorder = recorder
            before = workload.counters()
            trace.install(recorder)
            try:
                windows = measure(
                    workload, tally, count=traced_count,
                    first_index=len(untraced), recorder=recorder,
                )
            finally:
                trace.uninstall()
                workload.recorder = None
            after = workload.counters()
            per_layer = report.per_layer(
                recorder=recorder, inline=cls.inline, untraced=untraced,
                traced=windows, before=before, after=after,
                references=workload.references(tally), e2e=e2e,
            )
            # References and traced windows can fail operations too.
            per_layer["failed_frac"] = tally.failed_frac
            RESULTS.mkdir(parents=True, exist_ok=True)
            recorder.write(
                RESULTS / f"trace_{cls.name}.json",
                {"workload": cls.name, "seed": seed, "scale": scale},
            )
    finally:
        if workload is not None:
            workload.close()
    return {
        "workload": cls.name, "why": cls.why, "seed": seed,
        "shapes": workload.c,
        "end_to_end": {name: vars(stat) for name, stat in e2e.items()},
        "per_layer": per_layer,
        "samples": samples,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": dict(tally.reasons),
        "windows": len(untraced),
        "peak_rss_reset": rss["reset"],
        "inputs_sha256": workload.digest.hexdigest(),
        "notes": workload.notes,
        "wall_s": time.perf_counter() - started,
    }


def check_names(record: dict, spec: dict, traced: bool) -> None:
    """No drift either way between what is reported and what is declared."""
    import report

    declared = {metric["name"] for metric in spec["end_to_end"]}
    reported = set(record["end_to_end"]) - set(report.EXTRA_END_TO_END)
    drift = [("end_to_end", declared, reported)]
    if traced:
        drift.append((
            "per_layer", {metric["name"] for metric in spec["per_layer"]},
            set(record["per_layer"]),
        ))
    for section, declared, reported in drift:
        if declared != reported:
            raise SystemExit(
                f"{section} names drifted from BENCHMARK.json: "
                f"undeclared {sorted(reported - declared)}, "
                f"unreported {sorted(declared - reported)}"
            )


def environment(applied: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        **applied,
    }


def contract_line(record: dict, spec: dict, traced: bool) -> str:
    """The driver's result object for one pass of one workload."""
    if traced:
        values = record["per_layer"]
    else:
        values = {k: v["value"] for k, v in record["end_to_end"].items()}
    section = spec["per_layer" if traced else "end_to_end"]
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]], "unit": metric["unit"]
            }
            for metric in section
        },
    })


def record_path(name: str, traced: bool) -> Path:
    return RESULTS / f"pass_{name}_trace{int(traced)}.json"


def run_here(args, spec, names, passes) -> list[dict]:
    """``passes`` (False: untraced, True: traced) of ``names`` in this
    process: their records, each also written to ``record_path``."""
    workroot = RESULTS / "work" / f"run-{os.getpid()}"
    applied = bootstrap(workroot)        # before NumPy is imported
    import probe
    import report
    from workloads import BY_NAME

    probe.enabled = not args.smoke
    warnings.simplefilter("ignore")     # ConvergenceWarning: few iterations
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }
    records = []
    try:
        for name in names:
            for traced in passes:
                record = run_pass(
                    BY_NAME[name], seed=args.seed, seconds=args.seconds,
                    scale="smoke" if args.smoke else "full",
                    traced=traced, workroot=workroot,
                )
                check_names(record, spec, traced)
                record["environment"] = environment(applied)
                report.print_workload(record, units)
                with open(record_path(name, traced), "w") as handle:
                    json.dump(record, handle)
                records.append(record)
        return records
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()     # unless another run is using it
        except OSError:
            pass


def summarize(args, records: list[dict]) -> dict:
    """A workload's summary entry is its untraced pass, with the traced
    pass's per-layer metrics and failures folded in."""
    workloads: dict = {}
    for record in records:
        kept = workloads.setdefault(record["workload"], record)
        if kept is record:
            continue
        kept["per_layer"] = record["per_layer"]
        kept["wall_s"] += record["wall_s"]
        for key in ("attempted", "failed"):
            kept[key] += record[key]
        for reason, count in record["reasons"].items():
            kept["reasons"][reason] = kept["reasons"].get(reason, 0) + count
    return {
        "seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
        "workloads": workloads,
    }


def run_child(args, name: str, traced: bool) -> dict:
    """One pass in a process of its own, exactly as the driver runs it;
    the record it wrote."""
    path = record_path(name, traced)
    path.unlink(missing_ok=True)
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(traced)),
        ],
        cwd=ROOT,
    )
    if not path.is_file():
        raise SystemExit(
            f"{name}: the pass exited {done.returncode} without a record"
        )
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def totals(records) -> dict:
    return {
        "correct": all(record["failed"] == 0 for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
    }


def agree(args, spec, names) -> int:
    """Two sets of ``AGREE_RUNS`` untraced runs per workload, the sets'
    runs alternating (first, second, first, ...) so that both see the
    same stretch of the host's time; medians compared as ``--compare``
    does, in both directions."""
    import report

    sides = ({}, {})
    records = []
    for name in names:
        runs = ([], [])
        for _ in range(AGREE_RUNS):
            for which in (0, 1):
                runs[which].append(run_child(args, name, False))
        for which in (0, 1):
            sides[which][name] = report.side(runs[which])
            records += runs[which]
    misses = report.compare(*sides, spec, same_code=True)
    result = totals(records)
    print(json.dumps(result))
    return 1 if misses or not result["correct"] else 0


def compare_files(first: str, second: str, spec: dict) -> int:
    import report

    sides = []
    for path in (first, second):
        with open(path, encoding="utf-8") as handle:
            summary = json.load(handle)
        if summary.get("smoke"):
            print(f"{path} is a smoke run; its numbers gate nothing")
            return 2
        sides.append({
            name: report.side([record])
            for name, record in summary["workloads"].items()
        })
    return 1 if report.compare(*sides, spec, same_code=False) else 0


def parse(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append",
        choices=[w["name"] for w in spec["workloads"]],
        help="run only this workload (repeatable; default: all seven)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="nominal measured wall per pass; sets the window count",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="run one pass only and print the driver's result line",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="shapes / ~50, one window per pass; numbers gate nothing",
    )
    parser.add_argument(
        "--agree", action="store_true",
        help="run the end-to-end pass in two sets and compare the sets",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.trace is not None and len(args.workload or []) != 1:
        parser.error("--trace runs one pass of one --workload")
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(
            f"{ROOT} holds no src/repro to benchmark; run from a full "
            "checkout of the repository", file=sys.stderr,
        )
        return 2
    spec = load_spec()
    args = parse(argv, spec)
    if args.compare:
        return compare_files(*args.compare, spec)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.trace is not None:
        traced = bool(args.trace)
        record, = run_here(args, spec, names, [traced])
        print(contract_line(record, spec, traced))
        return 0 if record["failed"] == 0 else 1
    if args.agree:
        return agree(args, spec, names)
    if args.smoke:
        records = run_here(args, spec, names, [False, True])
    else:
        records = [
            run_child(args, name, traced)
            for name in names for traced in (False, True)
        ]
    summary = summarize(args, records)
    with open(RESULTS / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    result = totals(summary["workloads"].values())
    result["summary"] = str((RESULTS / "summary.json").relative_to(ROOT))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
