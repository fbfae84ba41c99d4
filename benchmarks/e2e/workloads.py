"""The seven workloads: set-up, fixed-work windows, oracle checks.

Every workload follows one protocol, driven by ``run.py``:

* ``setup()`` — generate the star from the seed, fit what serving needs,
  register, warm until caches and lazy state are filled (timed as
  ``setup_s``);
* ``make_window(i)`` — off the clock: draw window ``i``'s inputs from
  the seed (the program only ever sees the generated arrays);
* ``run_window(inputs, tally)`` — the measured, fixed amount of work;
* ``verify(inputs, window, tally)`` — off the clock: every output
  against the dense oracle (``oracle.py``);
* ``counters()`` / ``references()`` — per-layer counts read from the
  program's public stats, and the reference arms of the traced pass.

Shapes, rates and window counts are constants of the benchmark
(``SHAPES``), never re-derived per run; ``smoke`` divides the shapes by
~50 for the tier-1 test.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import repro
from repro.fx.tiers import FLOAT32_SCORE_RTOL

import probe
from oracle import (
    TRAIN_HISTORY_RTOL,
    DenseOracle,
    Request,
    Tally,
    check_requests,
    outputs_match,
)

MIB = float(1 << 20)
REPLY_TIMEOUT_S = 30.0
# An open-loop rate is "ok" when its p99 stays under the limit, at
# least 99 % of sent requests are inside it and the backlog drains.
OPEN_LATENCY_LIMIT_MS = 25.0
OPEN_DRAIN_LIMIT_S = 0.5

TRAIN_GMM = dict(n_components=5, max_iter=3, tol=0.0)
TRAIN_NN = dict(hidden_sizes=(50,), epochs=2)
SERVE_GMM = dict(n_components=5, max_iter=2, tol=0.0)
SERVE_NN = dict(hidden_sizes=(64,), epochs=1)
ARMS = {"F": "factorized", "M": "materialized", "S": "streaming"}

STAR3 = dict(n_s=100_000, d_s=5, dims=((20_000, 15), (500, 10)))
STAR3_SMOKE = dict(n_s=2_000, d_s=5, dims=((400, 15), (50, 10)))

# An untraced pass sets up ``SETUP_REPS`` times and spreads its windows
# over the set-ups, at least one each.  ``windows`` is a workload's
# window count at ``NOMINAL_SECONDS`` of ``--seconds``; it scales with
# ``--seconds`` and with nothing else, least of all with the speed of
# the code under test (``window_count``).  158 driver runs must fit
# 3420 s on a host that is at times 1.7x slower than at its best, so
# the long windows (two 200k-row fits; two governor periods) run once
# per set-up and the short ones twice: repeat counts shrink, shapes
# never do.
SETUP_REPS = 3
NOMINAL_SECONDS = 6.0
SHAPES = {
    "full": {
        "train_rr100_wide": dict(
            n_s=200_000, n_r=2_000, d_s=5, d_r=15, windows=3,
        ),
        "train_rr2_narrow": dict(
            n_s=200_000, n_r=100_000, d_s=5, d_r=5, windows=3,
        ),
        "serve_batch_warm": dict(
            STAR3, request_rows=2048, requests_per_window=60, windows=6,
        ),
        "serve_budget_tiered": dict(
            STAR3, request_rows=256, requests_per_window=400,
            periods_per_window=2, warm_requests=200, reference_requests=100,
            budget_bytes=16 << 20, zipf=0.9, windows=3,
        ),
        "serve_update_mix": dict(
            STAR3, request_rows=2048, reads_per_cycle=5, update_rows=32,
            cycles_per_window=6, update_noise=0.5, windows=6,
        ),
        "runtime_thread_window": dict(
            STAR3, sizes=(1, 4, 16), outstanding=64,
            requests_per_window=2500, windows=6,
        ),
        "runtime_process_open": dict(
            STAR3, sizes=(16, 64, 256), rates=(150, 300, 450),
            window_seconds=1.2, windows=5,
        ),
    },
    "smoke": {
        "train_rr100_wide": dict(n_s=2_000, n_r=20, d_s=5, d_r=15),
        "train_rr2_narrow": dict(n_s=2_000, n_r=1_000, d_s=5, d_r=5),
        "serve_batch_warm": dict(
            STAR3_SMOKE, request_rows=64, requests_per_window=20,
        ),
        "serve_budget_tiered": dict(
            STAR3_SMOKE, request_rows=32, requests_per_window=30,
            periods_per_window=2, warm_requests=30, reference_requests=30,
            budget_bytes=384 << 10, zipf=0.9,
        ),
        "serve_update_mix": dict(
            STAR3_SMOKE, request_rows=64, reads_per_cycle=5,
            update_rows=8, cycles_per_window=3, update_noise=0.5,
        ),
        "runtime_thread_window": dict(
            STAR3_SMOKE, sizes=(1, 4, 16), outstanding=64,
            requests_per_window=200,
        ),
        "runtime_process_open": dict(
            STAR3_SMOKE, sizes=(16, 64, 256), rates=(150, 300, 450),
            window_seconds=0.3,
        ),
    },
}


def window_count(name: str, seconds: float) -> int:
    """Windows of a full-scale pass: fixed by the arguments alone."""
    nominal = SHAPES["full"][name]["windows"]
    return max(SETUP_REPS, round(nominal * seconds / NOMINAL_SECONDS))


@dataclass
class Window:
    """What one measured window produced."""

    wall: float                       # timed wall of the whole window
    rows: int                         # rows answered
    serve_wall: float                 # the wall those rows were answered in
    latencies: dict                   # model -> per-request seconds
    outputs: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)      # "gmm"/"nn" -> seconds
    update_visible: list = field(default_factory=list)
    late: list = field(default_factory=list)      # open-loop lateness
    drain: float = 0.0
    extra: dict = field(default_factory=dict)
    slowdown: float = 1.0             # of the host, probed around the window


def _timed(call):
    """(seconds, result) — the exception itself when the call fails, so
    a failure is one failed operation and the window still completes."""
    tick = time.perf_counter()
    try:
        result = call()
    except Exception as error:      # boundary: record, keep measuring
        result = error
    return time.perf_counter() - tick, result


def sum_cache_stats(entries) -> dict:
    """The four cache counters the report uses, over ``CacheStats``."""
    total = dict.fromkeys(("hits", "misses", "evictions", "invalidated"), 0)
    for stats in entries:
        total["hits"] += stats.hits
        total["misses"] += stats.misses
        total["evictions"] += stats.evictions + stats.cross_evictions
        total["invalidated"] += stats.invalidations
    return total


def store_counters(store) -> dict:
    """Governor counters and residency gauges of a ``StoreStats``."""
    return {
        "store_sweeps": store.governor_sweeps,
        "store_demotions": sum(store.tier_demotions.values()),
        "store_promotions": sum(store.tier_promotions.values()),
        "gauge_resident_mb": store.bytes_resident / MIB,
        "gauge_spilled_mb": store.spilled_bytes / MIB,
    }


def gemm_floor(products) -> float:
    """Seconds of bare ``a @ b`` for ``(m, k, n, repeats)`` products —
    the model math no layer of ours can remove."""
    rng = np.random.default_rng(0)
    total = 0.0
    for m, k, n, repeats in products:
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        a @ b                                         # touch both once
        tick = time.perf_counter()
        for _ in range(repeats):
            a @ b
        total += time.perf_counter() - tick
    return total


class Workload:
    """Shared plumbing: seeded RNG streams, the database, the digest of
    everything the workload feeds the program."""

    name = ""
    why = ""
    index = 0
    inline = True      # nothing contends: spans must cover the window

    def __init__(
        self, seed: int, scale: str, workdir: Path, shared: dict
    ) -> None:
        """``shared`` is owned by the caller and outlives this set-up:
        it holds what depends on the seed alone (the input digest, the
        training oracle), so repeated set-ups of one run share it."""
        self.seed = seed
        self.c = SHAPES[scale][self.name]
        self.workdir = Path(workdir)
        self.shared = shared
        self.fit_seconds = {"gmm": [], "nn": []}   # (seconds, slowdown)
        self.probe_seconds = 0.0
        self.digest = shared.setdefault("digest", hashlib.sha256())
        # What close() releases; None until set-up gets that far.
        self.db = self.service = self.maintainer = self.runtime = None
        self.notes: dict = {}
        self.recorder = None     # set by run.py for the traced pass

    @contextlib.contextmanager
    def off_clock(self):
        """Checks that must run mid-window (the next step rewrites what
        they compare against) are no part of it: the caller stops its
        clock, and spans opened in here belong to no window."""
        recorder = self.recorder
        if recorder is None:
            yield
            return
        window, recorder.window = recorder.window, -1
        try:
            yield
        finally:
            recorder.window = window

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.index, *stream])

    @property
    def star_seed(self) -> int:
        return self.seed * 101 + self.index

    def _hash(self, *arrays) -> None:
        for array in arrays:
            self.digest.update(np.ascontiguousarray(array).tobytes())

    def _record(self, requests: list[Request]) -> list[Request]:
        """Fold measured requests into the workload's input digest."""
        for request in requests:
            self._hash(request.x, *request.fks)
        return requests

    def _open_db(self) -> None:
        self.db = repro.Database(self.workdir / "db")

    def _fit(self, kind: str, **config):
        """A set-up fit, recorded with the host's slowdown around it."""
        fit = repro.fit_gmm if kind == "gmm" else repro.fit_nn
        before = self._probe()
        seconds, result = _timed(
            lambda: fit(self.db, self.star.spec, algorithm="auto", **config)
        )
        if isinstance(result, Exception):
            raise result
        self.fit_seconds[kind].append(
            (seconds, probe.between(before, self._probe()))
        )
        return result

    def _probe(self) -> float:
        """The host's slowdown now; the probe's own time is kept, so
        that ``run.py`` can take it out of the set-up it interrupts."""
        tick = time.perf_counter()
        slowdown = probe.slowdown()
        self.probe_seconds += time.perf_counter() - tick
        return slowdown

    def counters(self) -> dict:
        io = self.db.stats.snapshot()
        pool = self.db.buffer_pool.stats()
        return {
            "pages_read": io.pages_read,
            "buffer_hits": pool.hits,
            "buffer_misses": pool.misses,
        }

    def references(self, tally: Tally) -> dict:
        return {}

    def close(self) -> None:
        """Release whatever set-up got as far as creating."""
        if self.maintainer is not None:
            self.maintainer.close()
        if self.service is not None:
            self.service.close()
        if self.runtime is not None:
            self.runtime.close(timeout=REPLY_TIMEOUT_S)
        if self.db is not None:
            self.db.close()
        self.db = self.service = self.maintainer = self.runtime = None
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- training -----------------------------------------------------------------


class _Train(Workload):
    """One window is ``fit_gmm`` then ``fit_nn`` with ``algorithm="auto"``.

    Nothing is served here, so the two serving metrics describe the
    training passes: ``rows_per_s`` is rows x passes (EM iterations +
    epochs) over the wall of both fits, and a "request" of
    ``lat_p50_ms`` is one pass over the table (fit wall / passes)."""

    def setup(self) -> None:
        c = self.c
        self._open_db()
        self.star = repro.generate_star(
            self.db,
            repro.StarSchemaConfig.binary(
                c["n_s"], c["n_r"], c["d_s"], c["d_r"],
                with_target=True, seed=self.star_seed,
            ),
        )
        # One unmeasured, shortened fit per model: the first fit over a
        # fresh database pays page faults and lazy imports no later one
        # does.  Not recorded: windows supply the fit samples here.
        self._warm("auto")

    def _warm(self, algorithm: str) -> None:
        spec = self.star.spec
        repro.fit_gmm(
            self.db, spec, algorithm=algorithm, **{**TRAIN_GMM, "max_iter": 1}
        )
        repro.fit_nn(
            self.db, spec, algorithm=algorithm, **{**TRAIN_NN, "epochs": 1}
        )

    def make_window(self, index: int):
        return None

    def run_window(self, inputs, tally: Tally) -> Window:
        db, spec = self.db, self.star.spec
        start = time.perf_counter()
        gmm_s, gmm = _timed(
            lambda: repro.fit_gmm(db, spec, algorithm="auto", **TRAIN_GMM)
        )
        nn_s, nn = _timed(
            lambda: repro.fit_nn(db, spec, algorithm="auto", **TRAIN_NN)
        )
        wall = time.perf_counter() - start
        iterations, epochs = TRAIN_GMM["max_iter"], TRAIN_NN["epochs"]
        return Window(
            wall=wall,
            rows=self.c["n_s"] * (iterations + epochs),
            serve_wall=gmm_s + nn_s,
            latencies={"gmm": [gmm_s / iterations], "nn": [nn_s / epochs]},
            outputs=[gmm, nn],
            fits={"gmm": [gmm_s], "nn": [nn_s]},
        )

    def _oracle(self) -> dict:
        """Reference histories, fitted once per run.

        M-GMM is the dense reference for the mixture.  For the network
        it is S-NN: with ``batch_mode="per-batch"`` a mini-batch is one
        block of pages, the materialized table's wider rows make its
        blocks hold fewer tuples, and so M-NN takes *different* SGD
        steps than F-NN and S-NN (which read the same pages in the same
        order and differ only in representation)."""
        if "train_oracle" not in self.shared:
            db, spec = self.db, self.star.spec
            self._hash(db.relation(self.star.fact_name).scan())
            self.shared["train_oracle"] = {
                "gmm": repro.fit_gmm(
                    db, spec, algorithm="materialized", **TRAIN_GMM
                ).log_likelihood_history,
                "nn": repro.fit_nn(
                    db, spec, algorithm="streaming", **TRAIN_NN
                ).loss_history,
            }
        return self.shared["train_oracle"]

    def verify(self, inputs, window: Window, tally: Tally) -> None:
        oracle = self._oracle()
        gmm, nn = window.outputs
        fitted = not isinstance(gmm, Exception)
        tally.record(
            fitted and np.allclose(
                gmm.log_likelihood_history, oracle["gmm"],
                rtol=TRAIN_HISTORY_RTOL,
            ),
            "fit_gmm(auto) log-likelihood history differs from M-GMM",
        )
        trained = not isinstance(nn, Exception)
        tally.record(
            trained and np.allclose(
                nn.loss_history, oracle["nn"], rtol=TRAIN_HISTORY_RTOL
            ),
            "fit_nn(auto) loss history differs from S-NN",
        )
        if fitted and trained:
            self.notes["auto_arms"] = [gmm.algorithm, nn.algorithm]
            window.extra.update({
                "gmm.iterations": float(gmm.fit.n_iter),
                "fx.dedup.ratio": float(gmm.fit.extra["dedup_ratio"]),
            })

    def references(self, tally: Tally) -> dict:
        """One warm (shortened) and one measured fit per explicit arm,
        and the bare-GEMM floor of one window's dense math."""
        db, spec = self.db, self.star.spec
        out = {}
        for arm, algorithm in ARMS.items():
            self._warm(algorithm)
            for kind, fit, config in (
                ("gmm", repro.fit_gmm, TRAIN_GMM),
                ("nn", repro.fit_nn, TRAIN_NN),
            ):
                seconds, result = _timed(
                    lambda: fit(db, spec, algorithm=algorithm, **config)
                )
                tally.record(
                    not isinstance(result, Exception),
                    f"fit_{kind}({algorithm}) raised",
                )
                out[f"core.fit_{kind}.{arm}_s"] = seconds
        n, d = self.c["n_s"], self.c["d_s"] + self.c["d_r"]
        k, iters = TRAIN_GMM["n_components"], TRAIN_GMM["max_iter"]
        hidden, epochs = TRAIN_NN["hidden_sizes"][0], TRAIN_NN["epochs"]
        out["linalg.gemm_floor_s"] = gemm_floor([
            (n, d, d, 2 * k * iters),        # quadratic form + Σ outer
            (n, d, hidden, 2 * epochs),      # forward, ∂E/∂W⁽¹⁾
        ])
        return out


class TrainRR100Wide(_Train):
    name = "train_rr100_wide"
    index = 0
    why = (
        "Tuple ratio 100, wide dimension: the paper's winning regime, where "
        "join.factorized, linalg and the gmm/nn engines do nearly all the work."
    )


class TrainRR2Narrow(_Train):
    name = "train_rr2_narrow"
    index = 1
    why = (
        "Tuple ratio 2: no redundancy to exploit, so join, dedup and storage "
        "overhead and the planner's arm choice dominate; the bypass for rr100."
    )


# -- serving over the 3-way star ---------------------------------------------


class _Star3(Workload):
    """S(100k, d_S=5) ⋈ R1(20k×15) ⋈ R2(500×10): the multi-way path is
    always on.  GMM K=5 and NN n_h=64 are fitted in set-up."""

    models = ("nn", "gmm")

    def _build_star(self) -> None:
        c = self.c
        self._open_db()
        self.star = repro.generate_star(
            self.db,
            repro.StarSchemaConfig(
                n_s=c["n_s"], d_s=c["d_s"],
                dimensions=tuple(
                    repro.DimensionSpec(rows, width)
                    for rows, width in c["dims"]
                ),
                with_target=True, seed=self.star_seed,
            ),
        )
        self.gmm = self._fit("gmm", **SERVE_GMM)
        self.nn = self._fit("nn", **SERVE_NN)
        self.dim_rows = [rows for rows, _ in c["dims"]]
        # Hot RIDs scattered over the pages, not the first ones.
        self._zipf_order = self.rng(9).permutation(self.dim_rows[0])
        self._oracles = None
        self._cache_last: dict = {}
        self._cache_total = sum_cache_stats([])

    def _all_rids_request(self) -> tuple:
        """Features and FKs touching every RID of every dimension."""
        n = self.dim_rows[0]
        rids = np.arange(n)
        return (
            np.zeros((n, self.c["d_s"])),
            [rids % rows for rows in self.dim_rows],
        )

    def _requests(
        self, rng, count: int, sizes, models, zipf: float = 0.0
    ) -> list[Request]:
        sizes = rng.choice(np.asarray(sizes), size=count)
        if zipf:
            ranks = np.arange(1, self.dim_rows[0] + 1, dtype=np.float64)
            weights = ranks ** -zipf
            weights /= weights.sum()
        requests = []
        for i, rows in enumerate(sizes.tolist()):
            x = rng.normal(size=(rows, self.c["d_s"]))
            fks = [rng.integers(0, n, size=rows) for n in self.dim_rows]
            if zipf:
                fks[0] = self._zipf_order[
                    rng.choice(self.dim_rows[0], size=rows, p=weights)
                ]
            requests.append(Request(models[i % len(models)], x, fks))
        return requests

    @staticmethod
    def dedup_ratio(requests: list[Request]) -> float:
        """FK references per distinct RID over the requests as sent."""
        references = distinct = 0
        for request in requests:
            plan = repro.DedupPlan.for_batch(request.fks)
            references += plan.rows * plan.num_dimensions
            distinct += sum(plan.distinct)
        return references / distinct if distinct else 1.0

    # -- oracle ---------------------------------------------------------------

    def _shadow(self) -> list[np.ndarray]:
        """The benchmark's own copy of each dimension's feature rows."""
        shadow = []
        for name in self.star.dimension_names:
            relation = self.db.relation(name)
            shadow.append(relation.project_features(relation.scan()))
        return shadow

    @property
    def served_gmm(self):
        """The mixture currently registered under ``"gmm"``."""
        return self.gmm

    def oracles(self) -> dict:
        if self._oracles is None:
            shadow = self._shadow()
            self._oracles = {
                "nn": DenseOracle(self.nn.model, shadow),
                "gmm": DenseOracle(self.gmm.model, shadow),
            }
        return self._oracles

    check_options: dict = {}    # check_requests keyword overrides

    def verify(self, inputs, window: Window, tally: Tally) -> None:
        check_requests(
            tally, self.oracles(), inputs, window.outputs,
            where=self.name, **self.check_options,
        )
        window.extra.setdefault("fx.dedup.ratio", self.dedup_ratio(inputs))

    # -- the inline service ---------------------------------------------------

    def _serve(
        self, predict, requests: list[Request], done=lambda: False
    ) -> Window:
        """One caller, closed loop, until the requests run out or
        ``done()`` says so after a request."""
        latencies = {model: [] for model in self.models}
        outputs = []
        start = time.perf_counter()
        for request in requests:
            seconds, output = _timed(
                lambda: predict(request.model, request.x, request.fks)
            )
            latencies[request.model].append(seconds)
            outputs.append(output)
            if done():
                break
        wall = time.perf_counter() - start
        return Window(
            wall=wall, rows=sum(r.rows for r in requests[:len(outputs)]),
            serve_wall=wall, latencies=latencies, outputs=outputs,
        )

    def _register(self, service, strategy: str = "factorized") -> None:
        service.register_nn("nn", self.nn, self.star.spec, strategy=strategy)
        service.register_gmm(
            "gmm", self.served_gmm, self.star.spec, strategy=strategy
        )

    def _fold_cache_stats(self, service) -> None:
        """Accumulate cache counters across model swaps (a swapped-in
        predictor starts its caches' counters from zero)."""
        for model in service.model_names:
            now = sum_cache_stats(service.cache_stats(model))
            last = self._cache_last.get(model)
            if last is None or now["hits"] + now["misses"] < (
                last["hits"] + last["misses"]
            ):
                last = dict.fromkeys(now, 0)
            for key in now:
                self._cache_total[key] += now[key] - last[key]
            self._cache_last[model] = now

    def _service_counters(self, service) -> dict:
        self._fold_cache_stats(service)
        out = super().counters()
        out.update({f"cache_{k}": v for k, v in self._cache_total.items()})
        out.update(store_counters(service.store_stats()))
        return out

    def _arm_rows_per_s(self, service, requests, tally, arm: str) -> float:
        """One checked window of ``requests`` on a reference ``service``,
        which is closed afterwards."""
        try:
            window = self._serve(service.predict, requests)
            check_requests(
                tally, self.oracles(), requests, window.outputs,
                where=f"{self.name} {arm} arm",
            )
        finally:
            service.close()
        return window.rows / window.wall

    def _serving_references(self, requests, tally: Tally) -> dict:
        """The same requests through ``strategy="materialized"``, and
        the bare-GEMM floor of their dense model math."""
        service = repro.serve(self.db)
        self._register(service, "materialized")
        return {
            "serve.materialized.rows_per_s": self._arm_rows_per_s(
                service, requests, tally, "materialized"
            ),
            "linalg.gemm_floor_s": self._serving_floor(requests),
        }

    def _serving_floor(self, requests) -> float:
        """Bare GEMMs of the dense model math for these requests."""
        d = self.c["d_s"] + sum(width for _, width in self.c["dims"])
        hidden = SERVE_NN["hidden_sizes"][0]
        k = SERVE_GMM["n_components"]
        rows = requests[0].rows
        per_model = len(requests) // len(self.models)
        return gemm_floor([
            (rows, d, hidden, per_model), (rows, d, d, k * per_model),
        ])


class ServeBatchWarm(_Star3):
    name = "serve_batch_warm"
    index = 2
    why = (
        "Warm unbounded caches, one caller, 2048-row requests: isolates the "
        "Python glue dedup -> get_many -> gather -> head between BLAS calls."
    )

    def setup(self) -> None:
        self._build_star()
        self.service = repro.serve(self.db)
        self._register(self.service)
        x, fks = self._all_rids_request()
        for model in self.models:
            self.service.predict(model, x, fks)
        self._serve(self.service.predict, self._draw(self.rng(2), 8))

    def _draw(self, rng, count: int | None = None) -> list[Request]:
        return self._requests(
            rng, count or self.c["requests_per_window"],
            (self.c["request_rows"],), self.models,
            zipf=self.c.get("zipf", 0.0),
        )

    def make_window(self, index: int) -> list[Request]:
        return self._record(self._draw(self.rng(1, index)))

    def run_window(self, inputs, tally: Tally) -> Window:
        return self._serve(self.service.predict, inputs)

    def counters(self) -> dict:
        return self._service_counters(self.service)

    def references(self, tally: Tally) -> dict:
        return self._serving_references(self._draw(self.rng(3)), tally)


class ServeBudgetTiered(ServeBatchWarm):
    name = "serve_budget_tiered"
    index = 3
    why = (
        "Budget of half the partial working set with the float32+spill ladder "
        "and Zipf keys: fx.store governor, fx.tiers and page reads do the work."
    )
    # The float32 tier's contract (docs/tuning.md).
    check_options = dict(rtol=FLOAT32_SCORE_RTOL)
    tiers = ("float32", "spill")

    def _service(self, budget, tiers):
        service = repro.serve(
            self.db, memory_budget=budget, store_tiers=tiers
        )
        self._register(service)
        self._serve_periods(
            service, self._draw(self.rng(2), self.c["warm_requests"]),
            periods=1,
        )
        return service

    def _serve_periods(self, service, requests, periods: int) -> Window:
        """Serve until the budget governor has tripped ``periods`` more
        times (or the requests run out: an ungoverned arm never trips).

        A trip stalls one request for ~0.6 s and then nothing trips for
        ~70 requests, so a fixed request count holds one, two or three
        stalls and its rate swings 2x.  Whole governor periods — from
        just after one trip to just after a later one — are this
        workload's unit of fixed work; warm-up ends on a trip too."""
        store = service.store
        target = store.governor_sweeps + periods
        window = self._serve(
            service.predict, requests,
            done=lambda: store.governor_sweeps >= target,
        )
        del requests[len(window.outputs):]     # verify what was served
        return window

    def setup(self) -> None:
        self._build_star()
        self.service = self._service(self.c["budget_bytes"], self.tiers)

    def run_window(self, inputs, tally: Tally) -> Window:
        return self._serve_periods(
            self.service, inputs, self.c["periods_per_window"]
        )

    def verify(self, inputs, window: Window, tally: Tally) -> None:
        super().verify(inputs, window, tally)
        # The tier contract also bounds scores: one score() per window.
        request = next(r for r in reversed(inputs) if r.model == "gmm")
        _, scores = _timed(
            lambda: self.service.score("gmm", request.x, request.fks)
        )
        oracle = self.oracles()["gmm"]
        want = oracle.model.score_samples(oracle.wide(request.x, request.fks))
        tally.record(
            isinstance(scores, np.ndarray) and outputs_match(
                "score", scores, want, rtol=FLOAT32_SCORE_RTOL,
                atol=FLOAT32_SCORE_RTOL * float(np.abs(want).max()),
            ),
            "serve_budget_tiered: gmm scores outside FLOAT32_SCORE_RTOL",
        )

    def references(self, tally: Tally) -> dict:
        """The same requests with no budget, and with the budget but no
        tier ladder (drop to recompute) — each on its own warmed service."""
        requests = self._draw(self.rng(3), self.c["reference_requests"])
        out = self._serving_references(requests, tally)
        for arm, budget in (
            ("unbounded", None), ("drop", self.c["budget_bytes"])
        ):
            out[f"fx.store.{arm}.rows_per_s"] = self._arm_rows_per_s(
                self._service(budget, ()), requests, tally, arm
            )
        return out


class ServeUpdateMix(_Star3):
    name = "serve_update_mix"
    index = 4
    why = (
        "Reads beside in-place R1 updates on the same cache: invalidation, "
        "partial rebuild, maintain delta and swap_model run between hits."
    )

    def setup(self) -> None:
        self._build_star()
        self.service = repro.serve(self.db)
        self._register(self.service)
        self.maintainer = repro.maintain(
            self.db, "gmm", "gmm", self.star.spec, self.gmm,
            policy=repro.MaintenancePolicy(refresh="manual"),
            targets=(self.service,),
        )
        x, fks = self._all_rids_request()
        for model in self.models:
            self.service.predict(model, x, fks)
        # The benchmark's copy of R1, rewritten in step with its updates.
        relation = self.db.relation(self.star.dimension_names[0])
        self._r1 = relation.scan()
        self._shadow_dims = self._shadow()

    @property
    def served_gmm(self):
        if self.maintainer is None:
            return self.gmm
        return self.maintainer.model

    def oracles(self) -> dict:
        """Rebuilt per use: the served GMM is ``maintainer.model`` as of
        the last flush, the rows are the benchmark's current copy."""
        return {
            "nn": DenseOracle(self.nn.model, self._shadow_dims),
            "gmm": DenseOracle(self.served_gmm, self._shadow_dims),
        }

    def make_window(self, index: int) -> list[dict]:
        return self._draw(self.rng(1, index), record=True)

    def _draw(self, rng, record: bool = False) -> list[dict]:
        c = self.c
        relation = self.db.relation(self.star.dimension_names[0])
        cycles = []
        for cycle in range(c["cycles_per_window"]):
            models = self.models if cycle % 2 == 0 else self.models[::-1]
            reads = self._requests(
                rng, c["reads_per_cycle"], (c["request_rows"],), models
            )
            rids = rng.choice(
                self.dim_rows[0], size=c["update_rows"], replace=False
            )
            rows = self._r1[relation.positions_of_keys(rids)].copy()
            rows[:, 1:] += rng.normal(
                scale=c["update_noise"], size=rows[:, 1:].shape
            )
            probes = []
            for model in self.models:
                x = rng.normal(size=(rids.size, c["d_s"]))
                fks = [rids] + [
                    rng.integers(0, n, size=rids.size)
                    for n in self.dim_rows[1:]
                ]
                probes.append(Request(model, x, fks))
            if record:
                self._record(reads + probes)
                self._hash(rids, rows)
            cycles.append(dict(reads=reads, rids=rids, rows=rows, probes=probes))
        return cycles

    def run_window(self, inputs, tally: Tally) -> Window:
        """Checks run at the end of each cycle with the clock stopped —
        the next cycle rewrites the rows they compare against."""
        relation_name = self.star.dimension_names[0]
        relation = self.db.relation(relation_name)
        total = Window(
            wall=0.0, rows=0, serve_wall=0.0,
            latencies={model: [] for model in self.models},
        )
        sent: list[Request] = []
        for cycle in inputs:
            reads = self._serve(self.service.predict, cycle["reads"])
            with self.off_clock():
                check_requests(
                    tally, self.oracles(), cycle["reads"], reads.outputs,
                    where=f"{self.name} read",
                )
                self._fold_cache_stats(self.service)
                positions = relation.positions_of_keys(cycle["rids"])
            tick = time.perf_counter()
            _, event = _timed(lambda: self.db.update_rows(
                relation_name, positions, cycle["rows"]
            ))
            _, flushed = _timed(self.maintainer.flush)
            probes = self._serve(self.service.predict, cycle["probes"])
            visible = time.perf_counter() - tick
            # The benchmark's copy follows the write it just issued.
            self._r1[positions] = cycle["rows"]
            self._shadow_dims[0][cycle["rids"]] = cycle["rows"][:, 1:]
            tally.record(
                not isinstance(event, Exception), "update_rows raised"
            )
            tally.record(flushed is True, "maintainer.flush applied nothing")
            with self.off_clock():
                check_requests(
                    tally, self.oracles(), cycle["probes"], probes.outputs,
                    where=f"{self.name} probe",
                )
                self._fold_cache_stats(self.service)
            total.wall += reads.wall + visible
            total.rows += reads.rows + probes.rows
            total.update_visible.append(visible)
            for model in self.models:
                total.latencies[model] += reads.latencies[model]
            sent += cycle["reads"]
        total.serve_wall = total.wall
        with self.off_clock():
            total.extra["fx.dedup.ratio"] = self.dedup_ratio(sent)
        return total

    def verify(self, inputs, window: Window, tally: Tally) -> None:
        """Everything was checked in-cycle."""

    def counters(self) -> dict:
        out = self._service_counters(self.service)
        out["gauge_drift"] = float(self.maintainer.drift)
        return out

    def references(self, tally: Tally) -> dict:
        requests = [
            r for cycle in self._draw(self.rng(3)) for r in cycle["reads"]
        ]
        return self._serving_references(requests, tally)

# -- the serving runtime ------------------------------------------------------


class _Runtime(_Star3):
    models = ("nn",)
    inline = False
    executor = "thread"

    def setup(self) -> None:
        self._build_star()
        self.runtime = repro.serve_runtime(
            self.db, num_workers=2, max_wait_ms=2.0, executor=self.executor
        )
        self.runtime.register_nn("nn", self.nn, self.star.spec)
        x, fks = self._all_rids_request()
        for start in range(0, x.shape[0], 2048):
            self.runtime.predict(
                "nn", x[start:start + 2048],
                [fk[start:start + 2048] for fk in fks],
                timeout=REPLY_TIMEOUT_S,
            )

    def _submit(self, request: Request, on_done):
        """Submit one request; ``on_done`` fires exactly once, on the
        thread that completes (or refuses) it."""
        try:
            future = self.runtime.submit(request.model, request.x, request.fks)
        except Exception as error:      # boundary: a refusal is a failure
            on_done()
            return error
        future.add_done_callback(lambda _: on_done())
        return future

    @staticmethod
    def _collect(futures: list) -> list:
        outputs = []
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        for future in futures:
            if isinstance(future, Exception):
                outputs.append(future)
                continue
            try:
                outputs.append(
                    future.result(max(0.0, deadline - time.monotonic()))
                )
            except FutureTimeout:
                outputs.append(None)
            except Exception as error:  # boundary: the request's own failure
                outputs.append(error)
        return outputs

    def counters(self) -> dict:
        stats = self.runtime.runtime_stats()
        out = super().counters()
        cache = sum_cache_stats(
            entry for entries in stats.cache_stats.values() for entry in entries
        )
        decisions = stats.planner_decisions.get("nn", {})
        out.update({f"cache_{k}": v for k, v in cache.items()})
        out.update(store_counters(stats.store))
        out.update({
            "batches": stats.batches,
            "batch_rows": sum(w.rows for w in stats.workers),
            "planned": sum(decisions.values()),
            "planned_factorized": decisions.get("factorized", 0),
            "scatter_s": stats.scatter_seconds.sum,
            "gather_s": stats.gather_seconds.sum,
            "gauge_queue_max_depth": float(stats.queue_max_depth),
            "gauge_dedup_ratio": float(stats.dedup_ratio.get("nn", 1.0)),
        })
        return out

    def verify(self, inputs, window: Window, tally: Tally) -> None:
        check_requests(
            tally, self.oracles(), inputs, window.outputs, where=self.name
        )

    def references(self, tally: Tally) -> dict:
        return {
            "linalg.gemm_floor_s":
                self._serving_floor(self._draw(self.rng(3)))
        }

    def _draw(self, rng) -> list[Request]:
        return self._requests(
            rng, self.c["requests_per_window"], self.c["sizes"], self.models
        )

    def _serving_floor(self, requests) -> float:
        d = self.c["d_s"] + sum(width for _, width in self.c["dims"])
        hidden = SERVE_NN["hidden_sizes"][0]
        return gemm_floor([
            (rows, d, hidden, sum(r.rows == rows for r in requests))
            for rows in self.c["sizes"]
        ])

class RuntimeThreadWindow(_Runtime):
    name = "runtime_thread_window"
    index = 5
    why = (
        "Closed loop, 64 tiny requests outstanding on 2 worker threads: queue, "
        "coalescing and the per-batch planner under GIL contention, little math."
    )

    def make_window(self, index: int) -> list[Request]:
        return self._record(self._draw(self.rng(1, index)))

    def run_window(self, inputs, tally: Tally) -> Window:
        count = len(inputs)
        sent, done = [0.0] * count, [0.0] * count
        futures: list = []
        slots = threading.Semaphore(self.c["outstanding"])

        def finish(i: int) -> None:
            done[i] = time.perf_counter()
            slots.release()

        start = time.perf_counter()
        for i, request in enumerate(inputs):
            if not slots.acquire(timeout=REPLY_TIMEOUT_S):
                break                    # the rest time out in _collect
            sent[i] = time.perf_counter()
            futures.append(self._submit(request, lambda i=i: finish(i)))
        outputs = self._collect(futures)
        wall = time.perf_counter() - start
        outputs += [None] * (count - len(outputs))
        answered = [
            i for i, out in enumerate(outputs) if isinstance(out, np.ndarray)
        ]
        return Window(
            wall=wall,
            rows=sum(inputs[i].rows for i in answered),
            serve_wall=wall,
            latencies={"nn": [done[i] - sent[i] for i in answered]},
            outputs=outputs,
        )


class RuntimeProcessOpen(_Runtime):
    name = "runtime_process_open"
    index = 6
    executor = "process"
    why = (
        "Open loop at a fixed 300 req/s against 2 worker processes: procpool "
        "framing, shm slabs and the slowest-worker wait set the latency tail."
    )

    def _draw(self, rng, rate: int | None = None) -> dict:
        rate = rate or self.c["rates"][1]
        count = max(1, round(rate * self.c["window_seconds"]))
        return dict(
            rate=rate,
            requests=self._requests(
                rng, count, self.c["sizes"], self.models
            ),
        )

    def make_window(self, index: int) -> dict:
        inputs = self._draw(self.rng(1, index))
        self._record(inputs["requests"])
        return inputs

    def run_window(self, inputs, tally: Tally) -> Window:
        """Latency runs from each request's *scheduled* send time, so a
        stall's cost to later requests is counted, not hidden."""
        requests, interval = inputs["requests"], 1.0 / inputs["rate"]
        count = len(requests)
        done, late, futures = [0.0] * count, [0.0] * count, []

        def finish(i: int) -> None:
            done[i] = time.perf_counter()

        start = time.perf_counter() + 0.002
        for i, request in enumerate(requests):
            due = start + i * interval
            remaining = due - time.perf_counter()
            if remaining > 0:
                time.sleep(remaining)
            late[i] = time.perf_counter() - due
            futures.append(self._submit(request, lambda i=i: finish(i)))
        outputs = self._collect(futures)
        end = time.perf_counter()
        answered = [
            i for i, out in enumerate(outputs) if isinstance(out, np.ndarray)
        ]
        last_due = start + (count - 1) * interval
        return Window(
            wall=end - start,
            rows=sum(requests[i].rows for i in answered),
            serve_wall=end - start,
            latencies={
                "nn": [done[i] - (start + i * interval) for i in answered]
            },
            outputs=outputs,
            late=late,
            drain=max(0.0, max(done, default=end) - last_due),
        )

    def verify(self, inputs, window: Window, tally: Tally) -> None:
        super().verify(inputs["requests"], window, tally)

    def references(self, tally: Tally) -> dict:
        """One window at each of lo/mid/hi: the step metric
        ``max_rate_ok`` and the tails either side of ``mid``."""
        out = super().references(tally)
        ok_rates = [0.0]
        lo, mid, hi = self.c["rates"]
        for label, rate in (("lo", lo), ("mid", mid), ("hi", hi)):
            inputs = self._draw(self.rng(3, rate), rate)
            window = self.run_window(inputs, tally)
            self.verify(inputs, window, tally)
            sent = len(inputs["requests"])
            latencies_ms = np.asarray(window.latencies["nn"]) * 1e3
            inside = int((latencies_ms <= OPEN_LATENCY_LIMIT_MS).sum())
            p99 = float(np.percentile(latencies_ms, 99)) if inside else 0.0
            if (
                latencies_ms.size
                and p99 <= OPEN_LATENCY_LIMIT_MS
                and inside >= 0.99 * sent
                and window.drain < OPEN_DRAIN_LIMIT_S
            ):
                ok_rates.append(float(rate))
            if label != "mid":
                out[f"runtime.open.{label}.lat_p99_ms"] = p99
        out["runtime.open.max_rate_ok"] = max(ok_rates)
        return out

    def _serving_floor(self, requests) -> float:
        return super()._serving_floor(requests["requests"])


WORKLOADS = (
    TrainRR100Wide,
    TrainRR2Narrow,
    ServeBatchWarm,
    ServeBudgetTiered,
    ServeUpdateMix,
    RuntimeThreadWindow,
    RuntimeProcessOpen,
)
BY_NAME = {cls.name: cls for cls in WORKLOADS}
