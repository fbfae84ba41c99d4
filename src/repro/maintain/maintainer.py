"""The model maintainer: delta-maintained fits on the event bus.

A :class:`ModelMaintainer` subscribes to the catalog's
:class:`~repro.storage.events.RowVersionEvent` stream and keeps a fit
fresh without retraining pauses:

* dimension-row **updates** apply rank-``k`` deltas to the retained
  :mod:`sufficient statistics <repro.maintain.stats>` instead of
  re-scanning (no exact delta exists for iterative NN fits, so those
  mark the model for a deterministic refit);
* fact-row **appends** fold in via mini-batch steps (exact accumulation
  for ridge, one E-step for the mixture, one factorized SGD step for
  the network — all routed through the same
  :class:`~repro.fx.dedup.DedupPlan` machinery training uses);
* refreshed fits are **atomically hot-swapped** into every attached
  :class:`~repro.serve.service.ModelService` /
  :class:`~repro.runtime.service.ServingRuntime` target via their
  ``swap_model``, so served outputs come from entirely the old or
  entirely the new fit, never a torn mix.

The refresh policy (:class:`MaintenancePolicy`) controls *when* pending
events become a new fit: ``"eager"`` applies on every event,
``"batched"`` coalesces bursts until the oldest pending event ages past
``max_staleness`` (or ``max_pending`` events pile up), ``"manual"``
waits for an explicit :meth:`ModelMaintainer.flush`.  Accumulated
statistic drift past ``drift_bound`` — and any change no delta covers,
or a solve whose centring correction cancels (the rows moved far from
the statistics' centre) — falls back to a full deterministic refit,
which re-anchors the maintained fit bit-exactly on what a from-scratch
fit would produce (the parity suite's contract; ``docs/maintenance.md``
tabulates exactness per path).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.fx.dedup import DedupPlan
from repro.gmm.base import EMConfig
from repro.join.bnl import DEFAULT_BLOCK_PAGES
from repro.join.spec import JoinSpec
from repro.join.batches import Batch
from repro.linalg.design import FactorizedDesign
from repro.maintain.stats import GMMSuffStats, LinearSuffStats
from repro.nn.base import NNConfig
from repro.obs import as_telemetry
from repro.storage.catalog import Database
from repro.storage.events import RowVersionEvent


@dataclass(frozen=True)
class MaintenancePolicy:
    """When pending row-version events become a refreshed fit.

    ``refresh`` picks the trigger discipline; ``max_staleness`` (wall
    seconds) bounds how long a pending event may wait under
    ``"batched"`` before a flush fires on the next event or
    :meth:`~ModelMaintainer.poll`; ``max_pending`` bounds burst
    coalescing by count.  ``drift_bound`` caps the statistics'
    accumulated relative movement — past it, the next refresh is a
    full deterministic refit instead of a delta solve (the mixture's
    frozen-γ delta is a first-order approximation, so bounded drift is
    what keeps its error bounded; exact ridge deltas never *need* the
    bound but honor it all the same).
    """

    refresh: str = "batched"
    max_staleness: float = math.inf
    max_pending: int = 64
    drift_bound: float = math.inf

    def __post_init__(self) -> None:
        if self.refresh not in ("eager", "batched", "manual"):
            raise ModelError(
                f"refresh must be 'eager', 'batched' or 'manual', "
                f"got {self.refresh!r}"
            )
        if self.max_staleness < 0:
            raise ModelError(
                f"max_staleness must be non-negative seconds, "
                f"got {self.max_staleness}"
            )
        if self.max_pending <= 0:
            raise ModelError(
                f"max_pending must be positive, got {self.max_pending}"
            )
        if self.drift_bound <= 0:
            raise ModelError(
                f"drift_bound must be positive, got {self.drift_bound}"
            )


@dataclass
class _PendingEvent:
    relation: str
    kind: str
    rids: np.ndarray
    positions: np.ndarray
    arrived_at: float


class ModelMaintainer:
    """Keeps one fit fresh against a live database.

    ``kind`` is ``"gmm"``, ``"nn"`` or ``"linear"``; ``model`` is the
    fitted object the maintenance starts from (a fit result or the
    bare model; ``None`` for ``"linear"``, whose statistics solve from
    scratch).  ``targets`` are serving layers exposing
    ``swap_model(name, model)`` — every refresh is pushed into each.
    Each maintainer builds and owns its sufficient statistics.
    """

    def __init__(
        self,
        db: Database,
        name: str,
        kind: str,
        spec: JoinSpec,
        model=None,
        *,
        policy: MaintenancePolicy | None = None,
        em_config: EMConfig | None = None,
        nn_config: NNConfig | None = None,
        alpha: float = 1e-3,
        targets: tuple = (),
        block_pages: int = DEFAULT_BLOCK_PAGES,
        telemetry=None,
    ) -> None:
        if kind not in ("gmm", "nn", "linear"):
            raise ModelError(
                f"kind must be 'gmm', 'nn' or 'linear', got {kind!r}"
            )
        self.db = db
        self.name = name
        self.kind = kind
        self.spec = spec
        self.policy = policy or MaintenancePolicy()
        self.block_pages = block_pages
        self.targets = tuple(targets)
        self.telemetry = as_telemetry(telemetry)
        self._resolved = spec.resolve(db)
        self._fact_name = self._resolved.fact.name
        self._dim_names = [
            dim.relation.name for dim in self._resolved.dimensions
        ]
        self._alpha = alpha
        self._em_config = em_config
        self._nn_config = nn_config or NNConfig()
        self._pending: list[_PendingEvent] = []
        self._pending_lock = threading.Lock()
        self._apply_lock = threading.Lock()
        self._needs_refit = False
        self._closed = False
        # The books /metrics samples (under the pending lock, which
        # no refit holds): deltas applied, refits run and the retained
        # statistics' bytes as of the last refresh.  Each starts at 0,
        # so a window asserting "no refits" reads a sample.
        self._deltas = self._refits = 0
        self._init_fit(model)
        self._book_refresh(0, 0)
        self.db.subscribe(self._on_row_version)
        self.telemetry.registry.register_collector(self._collect)

    # -- fit state -----------------------------------------------------------

    def _build_stats(self, params=None):
        """Fresh statistics over the current rows (``params`` anchors
        a mixture's responsibilities)."""
        if self.kind == "linear":
            return LinearSuffStats.build(
                self.db, self.spec,
                alpha=self._alpha, block_pages=self.block_pages,
            )
        return GMMSuffStats.build(
            self.db, self.spec, params,
            config=self._em_config, block_pages=self.block_pages,
        )

    def _init_fit(self, model) -> None:
        from repro.serve.predictor import coerce_gmm_model, coerce_nn_model

        self._stats = None
        if self.kind == "linear":
            self._solve_fresh_linear()
        elif self.kind == "gmm":
            if model is None:
                raise ModelError(
                    "a gmm maintainer needs the fitted model to start from"
                )
            bare = coerce_gmm_model(model)
            if self._em_config is None:
                self._em_config = EMConfig(
                    n_components=bare.params.weights.size,
                    reg_covar=bare.reg_covar,
                )
            self._stats = self._build_stats(bare.params)
            self._model = bare
        else:
            if model is None:
                raise ModelError(
                    "an nn maintainer needs the fitted model to start from"
                )
            self._model = coerce_nn_model(model).copy()

    @property
    def model(self):
        """The currently maintained fit (swapped into targets as-is)."""
        return self._model

    @property
    def stats(self):
        """The maintained sufficient statistics (``None`` for NN)."""
        return self._stats

    @property
    def drift(self) -> float:
        return self._stats.drift if self._stats is not None else 0.0

    def _book_refresh(self, deltas: int, refits: int) -> None:
        """Book one refresh: its deltas and refits, and the bytes the
        statistics now retain."""
        stats = self._stats             # an NN fit keeps none
        with self._pending_lock:
            self._deltas += deltas
            self._refits += refits
            self._stats_bytes = 0 if stats is None else stats.nbytes

    def _collect(self, buffer) -> None:
        """Sample the books and the live staleness into a snapshot."""
        staleness = self.staleness_seconds()
        with self._pending_lock:
            deltas, refits = self._deltas, self._refits
            nbytes = self._stats_bytes
        labels = {"model": self.name}
        buffer.counter(
            "repro_maintain_deltas_total", deltas,
            help="Incremental statistic deltas applied by maintainers",
            **labels,
        )
        buffer.counter(
            "repro_maintain_refits_total", refits,
            help="Full refits forced by drift, uncovered changes or a "
                 "cancelling solve",
            **labels,
        )
        buffer.gauge(
            "repro_maintain_staleness_seconds", staleness,
            help="Age of the oldest row-version event not yet applied",
            **labels,
        )
        buffer.gauge(
            "repro_maintain_stats_bytes", nbytes,
            help="Bytes the maintained sufficient statistics retain",
            **labels,
        )

    @property
    def pending_events(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    def staleness_seconds(self) -> float:
        """Age of the oldest event not yet folded into the fit."""
        with self._pending_lock:
            if not self._pending:
                return 0.0
            return max(
                0.0, time.monotonic() - self._pending[0].arrived_at
            )

    # -- the event bus -------------------------------------------------------

    def _on_row_version(self, event: RowVersionEvent) -> None:
        if self._closed:
            return
        if (
            event.relation != self._fact_name
            and event.relation not in self._dim_names
        ):
            return
        pending = _PendingEvent(
            relation=event.relation,
            kind=event.kind,
            rids=event.rids.copy(),
            positions=event.positions.copy(),
            arrived_at=time.monotonic(),
        )
        with self._pending_lock:
            self._pending.append(pending)
            count = len(self._pending)
            oldest = self._pending[0].arrived_at
        if self.policy.refresh == "eager":
            self.flush()
        elif self.policy.refresh == "batched":
            if (
                count >= self.policy.max_pending
                or time.monotonic() - oldest >= self.policy.max_staleness
            ):
                self.flush()

    def poll(self) -> bool:
        """Check the staleness trigger; flush if it fired.

        Deployments without a steady event stream call this from a
        timer so a lone event cannot wait past ``max_staleness``
        forever.  Returns whether a flush ran.
        """
        if self.policy.refresh != "batched":
            return False
        with self._pending_lock:
            if not self._pending:
                return False
            oldest = self._pending[0].arrived_at
        if time.monotonic() - oldest < self.policy.max_staleness:
            return False
        self.flush()
        return True

    # -- applying ------------------------------------------------------------

    def flush(self) -> bool:
        """Apply every pending event and swap the refreshed fit into
        the targets.  Returns whether anything was applied."""
        with self._apply_lock:
            with self._pending_lock:
                batch = self._pending
                self._pending = []
            if not batch:
                return False
            with self.telemetry.tracer.trace(
                "maintain.apply", model=self.name,
                kind=self.kind, events=len(batch),
            ) as span:
                deltas = 0
                for pending in batch:
                    deltas += self._apply_event(pending)
                refitted = self._refresh_model()
                span.set("deltas", deltas)
                span.set("refit", refitted)
            self._book_refresh(deltas, int(refitted))
            self._push_to_targets()
            return True

    def refresh(self) -> None:
        """Force a full deterministic refit (and swap it in) now."""
        with self._apply_lock:
            with self._pending_lock:
                self._pending = []
            with self.telemetry.tracer.trace(
                "maintain.apply", model=self.name,
                kind=self.kind, events=0, forced=True,
            ):
                self._full_refit()
            self._book_refresh(0, 1)
            self._push_to_targets()

    def _apply_event(self, pending: _PendingEvent) -> int:
        """Fold one event into the maintained state; returns the number
        of delta applications it took (0 when it marks a refit)."""
        if pending.relation == self._fact_name:
            if pending.kind != "append":
                # In-place fact updates rewrite targets/features no
                # retained statistic decomposes over; refit.
                self._needs_refit = True
                return 0
            return self._fold_fact_append(pending)
        if self.kind == "nn":
            # Appended rows serve through the existing first-layer
            # weights; an update has no exact delta of an iterative fit
            # and the refresh falls back to a deterministic refit
            # (contract table in docs/maintenance.md).
            self._needs_refit |= pending.kind == "update"
            return 0
        if pending.positions.size != pending.rids.size:
            self._needs_refit = True        # the event names no heap rows
            return 0
        # Reads the pages the event touched, not the whole dimension,
        # through the pool, where an update has just patched them.
        relation = self.db.relation(pending.relation)
        rows = self.db.buffer_pool.read_rows(relation.heap, pending.positions)
        keys = relation.project_keys(rows)
        features = relation.project_features(rows)
        if pending.kind == "append":
            self._stats.fold_appended_dimension(
                pending.relation, keys, features
            )
            return 0
        self._stats.apply_dimension_update(pending.relation, keys, features)
        return 1

    def _fact_rows_at(self, positions: np.ndarray):
        """The appended fact rows, split into features / FKs / targets."""
        fact = self._resolved.fact
        rows = fact.heap.read_rows(positions)
        features = fact.project_features(rows)
        fks = [
            fact.project_foreign_keys(rows, dim.relation.name)
            for dim in self._resolved.dimensions
        ]
        targets = (
            fact.project_targets(rows)
            if fact.schema.target_column is not None
            else None
        )
        return features, fks, targets

    def _fold_fact_append(self, pending: _PendingEvent) -> int:
        if pending.positions.size == 0:
            self._needs_refit = True
            return 0
        features, fks, targets = self._fact_rows_at(pending.positions)
        if self._stats is None:
            self._sgd_step(features, fks, targets, pending.positions)
        else:
            self._stats.fold_appended_facts(features, fks, targets)
        return 1

    def _sgd_step(self, features, fks, targets, positions) -> None:
        """One factorized mini-batch SGD step over appended fact rows.

        The batch runs through the standard ``DedupPlan`` →
        ``FactorizedDesign`` pipeline and the F-NN engine's first-layer
        seam, so the fold-in is the training kernel at mini-batch
        granularity.  The step lands on a copy — the maintained model
        reference is replaced wholesale, never mutated under a reader.
        """
        from repro.nn.engines import FactorizedNNEngine

        if targets is None:
            raise ModelError("nn maintenance requires targets")
        plan = DedupPlan.for_batch(fks)
        dim_blocks = []
        for dim, rids in zip(self._resolved.dimensions, plan.dims):
            # The batch's distinct RIDs, read at their heap rows alone.
            at = dim.relation.positions_of_keys(rids.unique)
            rows = self.db.buffer_pool.read_rows(dim.relation.heap, at)
            dim_blocks.append(dim.relation.project_features(rows))
        design = FactorizedDesign.from_plan(features, dim_blocks, plan)
        batch = Batch(positions, design, targets, plan=plan)
        stepped = self._model.copy()
        engine = FactorizedNNEngine(None, stepped)
        _, grads = engine.batch_gradients(batch, batch.n)
        stepped.apply_grads(grads, self._nn_config.learning_rate)
        self._model = stepped

    def _refresh_model(self) -> bool:
        """Turn the maintained state into the next served fit.

        Returns whether the refresh was a full refit (forced by an
        uncovered change, by drift past the policy bound, or by a solve
        whose centring correction cancels).
        """
        if not self._needs_refit and self.drift <= self.policy.drift_bound:
            if self._stats is None:     # NN: SGD steps already landed
                return False
            solved = self._solved()
            if solved is not None:      # None: the solve cancelled
                self._model = solved
                return False
        self._full_refit()
        return True

    def _solved(self):
        """The statistics' solve, as the fit the targets serve (``None``
        when its centring correction cancels)."""
        solved = self._stats.solve()
        if self.kind == "gmm" and solved is not None:
            from repro.gmm.model import GaussianMixtureModel

            return GaussianMixtureModel(
                solved, reg_covar=self._em_config.reg_covar
            )
        return solved

    def _solve_fresh_linear(self) -> None:
        """Ridge statistics over the current rows, and their solve."""
        self._stats = None      # free the old before building the new
        self._stats = self._build_stats()
        self._model = self._solved()
        if self._model is None:
            raise ModelError("the first batch is too small a share of the join to centre on")

    def _full_refit(self) -> None:
        """A deterministic from-scratch refit — the same computation the
        parity oracle runs, so the refreshed fit re-anchors bit-exactly
        on it."""
        from repro.core.api import fit_gmm, fit_nn

        self._needs_refit = False
        if self.kind == "linear":
            self._solve_fresh_linear()
        elif self.kind == "gmm":
            result = fit_gmm(
                self.db, self.spec, algorithm="factorized",
                config=self._em_config, block_pages=self.block_pages,
            )
            self._stats = None
            self._stats = self._build_stats(result.model.params)
            self._model = result.model
        else:
            result = fit_nn(
                self.db, self.spec, algorithm="factorized",
                config=self._nn_config, block_pages=self.block_pages,
            )
            self._model = result.model

    def _push_to_targets(self) -> None:
        model = self._model
        for target in self.targets:
            target.swap_model(self.name, model)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Detach from the event bus and drop the statistics."""
        if self._closed:
            return
        self._closed = True
        self.db.unsubscribe(self._on_row_version)
        self.telemetry.registry.unregister_collector(self._collect)
        self._stats = None

    def __enter__(self) -> "ModelMaintainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
