"""Outside-in tracer: spans around the public calls into each layer.

The benchmark times ``repro`` from outside, so nothing under
``src/repro`` knows it is being traced.  For the traced pass only,
:func:`install` replaces the public callables listed in ``_targets()``
with wrappers that record one span per call into a :class:`Recorder`
(name, start, end, parent span, window id — spans stay in memory and
are written out when the run ends).  :func:`uninstall` puts the
originals back; the untraced pass asserts :func:`installed` is false.

A span's *self time* is its duration minus the part of that interval
its child spans cover.  Children of one span run on the span's own
thread, one after the other, so the covered part is the sum of the
direct children's durations.  ``<layer>.busy_s`` metrics are summed self
times, which makes nested spans of one name (a sharded ``get_many``
calling its shards' ``get_many``) add up to the time inside that name
exactly once.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

_MARK = "_e2e_traced"
# Trace files are for reading one window's request flow, not for
# archiving every span: cap what is written, keep the totals exact.
MAX_SPANS_WRITTEN = 20000


class Recorder:
    """In-memory span store shared by every wrapper of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []    # [name, start, end, parent, window]
        self.window = -1               # -1: outside any measured window
        self.queue_waits: list[float] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, 0.0, 0.0, stack[-1] if stack else None, self.window]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def self_times(self, window: int | None = None) -> dict[str, float]:
        """Summed self time per span name (optionally one window's)."""
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, span_window) in enumerate(
            self.spans
        ):
            if span_window < 0 or (
                window is not None and span_window != window
            ):
                continue
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def counts(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for name, _, _, _, span_window in self.spans:
            if span_window >= 0:
                totals[name] += 1
        return dict(totals)

    def root_seconds(self) -> float:
        """Wall covered by top-level spans inside measured windows."""
        return sum(
            end - start
            for _, start, end, parent, span_window in self.spans
            if parent is None and span_window >= 0
        )

    def write(self, path, header: dict) -> None:
        payload = dict(header)
        payload["columns"] = ["name", "start", "end", "parent", "window"]
        payload["spans_total"] = len(self.spans)
        payload["spans"] = self.spans[:MAX_SPANS_WRITTEN]
        payload["self_seconds"] = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _wrap_call(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(index)

    return wrapper


def _wrap_generator(recorder: Recorder, name: str, fn):
    """Span per ``next()`` — time inside the generator, not its consumer."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            index = recorder.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.end(index)
            yield item

    return wrapper


def _wrap_take_batch(recorder: Recorder, fn):
    """Not a span (a worker idles in here): per-request queue waits,
    from ``Request.enqueued_at`` (stamped by ``put``'s caller) to the
    moment ``take_batch`` hands the request to a worker."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        batch = fn(*args, **kwargs)
        if batch and recorder.window >= 0:
            now = time.perf_counter()
            recorder.queue_waits.extend(
                now - request.enqueued_at for request in batch
            )
        return batch

    return wrapper


def _defined_in(module, predicate, private: bool = False) -> list:
    """Classes/functions ``module`` itself defines (public ones unless
    ``private``: the predictors' ``predict`` lives on a private mixin)."""
    return [
        value for name, value in vars(module).items()
        if predicate(value)
        and value.__module__ == module.__name__
        and (private or not name.startswith("_"))
    ]


def _targets():
    """(owner, attribute, span name, kind) for every traced callable.

    Imported lazily so importing this module touches nothing in repro.
    """
    from repro.core import api
    from repro.fx.dedup import DedupPlan, DimensionDedup
    from repro.fx.sharding import ShardedPartialCache
    from repro.fx.store import PartialStore
    from repro.gmm.engines import DenseEMEngine, FactorizedEMEngine
    from repro.join import materialize
    from repro.join.factorized import FactorizedJoin
    from repro.join.materialize import MaterializedTable
    from repro.join.stream import StreamingJoin
    from repro.linalg import groupsum, outer, quadform, stats
    from repro.maintain.maintainer import ModelMaintainer
    from repro.nn import activations
    from repro.nn.engines import DenseNNEngine, FactorizedNNEngine
    from repro.runtime.planner import BatchPlanner
    from repro.runtime.queue import RequestQueue
    from repro.runtime.service import ServingRuntime
    from repro.serve import predictor
    from repro.serve.cache import PartialCache
    from repro.serve.partials import GMMPartialBuilder, NNPartialBuilder
    from repro.serve.service import ModelService
    from repro.storage.buffer import BufferPool
    from repro.storage.catalog import Database

    targets = [
        (BufferPool, "get_page", "storage.buffer.get_page", "call"),
        (Database, "update_rows", "storage.update_rows", "call"),
        (FactorizedJoin, "batches", "join.batches", "generator"),
        (StreamingJoin, "batches", "join.batches", "generator"),
        (MaterializedTable, "batches", "join.batches", "generator"),
        (materialize, "materialize_join", "join.materialize", "function"),
        (DenseEMEngine, "estep_batch", "gmm.estep", "call"),
        (FactorizedEMEngine, "estep_batch", "gmm.estep", "call"),
        (DenseNNEngine, "batch_gradients", "nn.batch_gradients", "call"),
        (FactorizedNNEngine, "batch_gradients", "nn.batch_gradients", "call"),
        (api, "fit_gmm", "core.fit_gmm", "function"),
        (api, "fit_nn", "core.fit_nn", "function"),
        (DedupPlan, "for_batch", "fx.dedup.plan", "classmethod"),
        (DimensionDedup, "gather", "fx.gather", "call"),
        (PartialStore, "enforce_budget", "fx.store.enforce_budget", "call"),
        (PartialCache, "get_many", "serve.cache.get_many", "call"),
        (ShardedPartialCache, "get_many", "serve.cache.get_many", "call"),
        (NNPartialBuilder, "compute", "serve.partials.compute", "call"),
        (GMMPartialBuilder, "compute", "serve.partials.compute", "call"),
        (ModelService, "predict", "serve.service.overhead", "call"),
        (ModelService, "swap_model", "maintain.swap", "call"),
        (ModelMaintainer, "flush", "maintain.flush", "call"),
        (ServingRuntime, "submit", "runtime.submit", "call"),
        (BatchPlanner, "plan", "runtime.planner.plan", "call"),
        (RequestQueue, "take_batch", "", "take_batch"),
    ]
    for engine in (DenseEMEngine, FactorizedEMEngine):
        for method in ("mu_accumulate_batch", "sigma_accumulate_batch"):
            targets.append((engine, method, "gmm.mstep", "call"))
    for cls in _defined_in(predictor, inspect.isclass, private=True):
        if "predict" in vars(cls):
            targets.append((cls, "predict", "serve.predictor.head", "call"))
    for cls in _defined_in(activations, inspect.isclass):
        if "__call__" in vars(cls):
            targets.append((cls, "__call__", "nn.activation", "call"))
    for module in (quadform, outer, stats):
        for fn in _defined_in(module, inspect.isfunction):
            targets.append((module, fn.__name__, "linalg", "function"))
    targets.append((groupsum, "codes_for_keys", "linalg", "function"))
    for method in ("sum_weights", "presort", "sum_rows", "gather"):
        targets.append((groupsum.GroupIndex, method, "linalg", "call"))
    return targets


_installed: list[tuple[object, str, object]] = []


def installed() -> bool:
    return bool(_installed)


def _set(owner, attr: str, value) -> None:
    _installed.append((owner, attr, vars(owner)[attr]))
    setattr(owner, attr, value)


def install(recorder: Recorder) -> None:
    """Wrap every target; module functions are rebound in every repro
    module that imported them by name."""
    if _installed:
        raise RuntimeError("tracer already installed")
    for owner, attr, name, kind in _targets():
        original = vars(owner)[attr]
        if kind == "classmethod":
            wrapped = classmethod(
                _wrap_call(recorder, name, original.__func__)
            )
        elif kind == "generator":
            wrapped = _wrap_generator(recorder, name, original)
        elif kind == "take_batch":
            wrapped = _wrap_take_batch(recorder, original)
        else:
            wrapped = _wrap_call(recorder, name, original)
        if kind != "classmethod":
            setattr(wrapped, _MARK, True)
        if kind != "function":
            _set(owner, attr, wrapped)
            continue
        for module_name, module in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith(
                "repro."
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    _set(module, key, wrapped)


def uninstall() -> None:
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)


def assert_untraced() -> None:
    """The untraced pass must run the program exactly as shipped."""
    if _installed:
        raise AssertionError("tracer wrappers are installed")
    from repro.serve.service import ModelService
    from repro.storage.buffer import BufferPool

    for fn in (ModelService.predict, BufferPool.get_page):
        if getattr(fn, _MARK, False):
            raise AssertionError(f"{fn.__qualname__} is still wrapped")
