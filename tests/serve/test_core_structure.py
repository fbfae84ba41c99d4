"""Structural invariants of the one serving core (AST scans, in the
style of ``tests/fx/test_single_dedup.py``).

``ModelService``, the thread runtime and the process runtime are three
configurations of :class:`repro.serve.core.ServingCore`; these tests
keep a second copy of its build / plan / swap logic from growing back:
predictors and planners are constructed in the core alone, the runtime
facade never branches on the executor kind outside construction (and
runs one dispatcher per worker on both), the
runtime is a ``ModelService`` that redefines none of its surface
(``TestOneFacade``), ``swap_model`` is a delegation, and the process
worker's message handlers hold framing, not lifecycle logic.  The same goes for
the partial-cache stack underneath (``TestOneCacheStack``), its one
memory bound (``TestOneMemoryBound``), its one governor
(``TestOneGovernor``), its one victim order
(``TestOneVictimOrder``), its one recency stamp per row
(``TestOneRecencyStamp``) and its one lock per cache
(``TestOneLockPerCache``), the cost model both choosers
call (``TestOneCostModel``), the mixture
E-step serving, maintenance and training share (``TestOneEStep``),
the update → flush → cold-miss path (``TestAnUpdateCostsWhatItTouches``),
the request queue's one wake-up per arrival (``TestTargetedWakeUps``),
the maintainer's own statistics (``TestEachMaintainerOwnsItsStatistics``),
one set of them for ridge and the mixture (``TestOneSetOfStatistics``),
one book per serving count (``TestOneSetOfBooks``),
one serving predictor per model kind (``TestOnePredictorPerKind``)
and the paper's evaluation as one table (``TestOneEvaluationTable``).
"""

import ast
import re
from pathlib import Path

import pytest

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent
CORE = SRC_ROOT / "serve" / "core.py"
RUNTIME_SERVICE = SRC_ROOT / "runtime" / "service.py"
SERVICE = SRC_ROOT / "serve" / "service.py"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _callers(name: str) -> set[str]:
    """Modules under ``src/repro`` that call ``name(...)`` (bare or as
    an attribute)."""
    found = set()
    for path in SRC_ROOT.rglob("*.py"):
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            if called == name:
                found.add(str(path.relative_to(SRC_ROOT)))
    return found


def _method(path: Path, cls: str, method: str) -> ast.FunctionDef:
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == method:
                    return item
    raise AssertionError(f"{cls}.{method} not found in {path}")


def _names(node: ast.AST) -> set[str]:
    """Every bare name and attribute name used under ``node``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


# Everything the fold into ``fx/costs.py`` deleted: the four adapter
# classes and their bases, and the binary-join free functions that
# stated each count a second time.
REMOVED_COST_NAMES = (
    "NNServingCost", "GMMServingCost", "NNTrainingCost", "GMMTrainingCost",
    "_TrainingIOBase", "_CostModelBase",
    "nn_serving_mults_dense", "nn_serving_mults_factorized",
    "gmm_serving_mults_dense", "gmm_serving_mults_factorized",
    "nn_serving_saving_rate", "gmm_serving_saving_rate",
    "layer1_forward_mults_dense", "layer1_forward_mults_factorized",
    "layer1_forward_saving_rate",
    "m_gmm_io_pages", "s_gmm_io_pages", "m_nn_io_pages", "s_nn_io_pages",
)


class TestBuiltOnce:
    def test_make_predictor_called_from_core_and_one_shot_helper(self):
        assert _callers("make_predictor") == {
            "serve/core.py", "core/api.py",
        }

    def test_batch_planner_constructed_in_one_module(self):
        assert _callers("BatchPlanner") == {"serve/core.py"}

    def test_old_paths_are_gone(self):
        from repro.runtime import procworker
        from repro.runtime.service import ServingRuntime

        for name in (
            "_execute_thread", "_execute_process", "_build_thread_model",
            "_build_process_model", "_register_process",
            "_insert_registration", "_plan",
        ):
            assert not hasattr(ServingRuntime, name), name
        assert not hasattr(procworker, "_WorkerModel")
        assert not (SRC_ROOT / "runtime" / "sharding.py").exists()


class TestRuntimeNeverBranchesOnTheExecutorKind:
    def test_no_comparison_against_the_executor_constants(self):
        offenders = [
            node.lineno
            for node in ast.walk(_tree(RUNTIME_SERVICE))
            if isinstance(node, ast.Compare)
            and _names(node) & {"PROCESS_EXECUTOR", "THREAD_EXECUTOR"}
        ]
        assert offenders == []

    def test_no_executor_is_none_test_outside_init_and_close(self):
        offenders = []
        for node in ast.walk(_tree(RUNTIME_SERVICE)):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name in ("__init__", "close"):
                continue
            for test in ast.walk(node):
                if (
                    isinstance(test, ast.Compare)
                    and "_executor" in _names(test)
                    and any(
                        isinstance(op, (ast.Is, ast.IsNot))
                        for op in test.ops
                    )
                ):
                    offenders.append((node.name, test.lineno))
        assert offenders == []

    def test_the_dispatcher_count_is_num_workers_alone(self):
        """Both executors run one dispatcher thread per worker."""
        init = _method(RUNTIME_SERVICE, "ServingRuntime", "__init__")
        assert "_EXECUTORS" not in _names(init)
        (comprehension,) = [
            node.value for node in ast.walk(init)
            if isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Attribute)
                and target.attr == "_workers"
                for target in node.targets
            )
        ]
        (loop,) = comprehension.generators
        assert ast.unparse(loop.iter) == "range(self.config.num_workers)"

    def test_a_process_batch_is_one_send_to_one_worker(self):
        run = _method(
            SRC_ROOT / "runtime" / "procpool.py", "ProcessExecutor", "_run"
        )
        loops = [
            node for node in ast.walk(run)
            if isinstance(node, (ast.For, ast.comprehension))
            and _names(node.iter) & {"workers", "num_workers"}
        ]
        assert loops == []
        sends = [
            node for node in ast.walk(run)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "send"
        ]
        assert len(sends) == 1

    def test_exec_meta_attributes_no_shares(self):
        from dataclasses import fields

        from repro.serve.core import ExecMeta

        assert "shares" not in {field.name for field in fields(ExecMeta)}


class TestFacadesDelegate:
    @pytest.mark.parametrize(
        "path, cls",
        [(SERVICE, "ModelService")],
    )
    def test_swap_model_is_a_thin_delegation(self, path, cls):
        swap = _method(path, cls, "swap_model")
        used = _names(swap)
        # No predictor construction, no registry mutation of its own …
        assert not used & {
            "make_predictor", "BatchPlanner", "_models",
            "_registry_lock",
        }
        # … just the core's swap.
        assert "swap" in used
        statements = [
            s for s in swap.body
            if not (isinstance(s, ast.Expr)
                    and isinstance(s.value, ast.Constant))
        ]
        assert len(statements) <= 2

    @pytest.mark.parametrize(
        "handler", ["on_register", "on_exec", "on_invalidate"]
    )
    def test_worker_handlers_hold_framing_only(self, handler):
        body = _method(
            SRC_ROOT / "runtime" / "procworker.py", "_Worker", handler
        )
        used = _names(body)
        assert "core" in used       # a call into the serving core …
        # … and no second copy of build / plan / invalidate logic.
        assert not used & {
            "make_predictor", "BatchPlanner", "DedupPlan", "planner",
            "caches", "approx_hit_rate", "score_samples",
        }


class TestOneFacade:
    """``ServingRuntime`` is a ``ModelService`` that adds a queue:
    registration, lookup, bookkeeping, the budget and the row-version
    subscription are written once, in the base class."""

    INHERITED = (
        "register_gmm", "register_nn", "swap_model", "unregister", "model",
        "model_names", "stats", "cache_stats", "set_memory_budget",
    )

    def test_the_runtime_is_a_service(self):
        from repro.runtime.service import ServingRuntime
        from repro.serve.service import ModelService

        assert issubclass(ServingRuntime, ModelService)

    def test_the_runtime_redefines_none_of_the_services_surface(self):
        from repro.runtime.service import ServingRuntime

        assert not set(self.INHERITED) & set(vars(ServingRuntime))

    def test_one_row_version_subscription(self):
        paths = [*sorted((SRC_ROOT / "serve").glob("*.py")), RUNTIME_SERVICE]
        sites = [
            (path.name, node.lineno)
            for path in paths
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "subscribe"
        ]
        assert len(sites) == 1, sites

    def test_the_core_neither_owns_its_store_nor_sizes_blocks(self):
        init = _method(CORE, "ServingCore", "__init__")
        params = {
            arg.arg for arg in (*init.args.args, *init.args.kwonlyargs)
        }
        assert not params & {"owns_store", "block_pages"}


class TestOneCacheStack:
    """One cache type (``PartialCache``, built only as the store's
    ``ShardedPartialCache``), one lock per cache, one insert path, one
    store class, no sharing off switch — and no binary-join fork in the
    cost adapters."""

    def test_caches_are_constructed_by_the_store_alone(self):
        assert _callers("PartialCache") == set()
        assert _callers("ShardedPartialCache") == {"fx/store.py"}

    def test_the_store_cache_adds_no_lock_of_its_own(self):
        assert not {"Lock", "RLock"} & {
            node.func.attr if isinstance(node.func, ast.Attribute)
            else getattr(node.func, "id", None)
            for node in ast.walk(_tree(SRC_ROOT / "fx" / "sharding.py"))
            if isinstance(node, ast.Call)
        }

    def test_one_slab_insert_call_site(self):
        """``SlotTable._relocate`` is the one place a slab with room
        for rows is made; ``clear`` only resets it to an empty one."""
        def empty(value):
            return (
                isinstance(value, ast.Call)
                and _names(value.func) >= {"np", "empty"}
                and isinstance(value.args[0], ast.Tuple)
                and all(
                    isinstance(dim, ast.Constant) and dim.value == 0
                    for dim in value.args[0].elts
                )
            )

        makers = [
            function.name
            for function in ast.walk(_tree(SRC_ROOT / "serve" / "cache.py"))
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Attribute) and target.attr == "slab"
                for target in node.targets
            )
            and not empty(node.value)
        ]
        assert makers == ["_relocate"]

    def test_removed_names_stay_removed(self):
        for path in SRC_ROOT.rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            for name in (
                "SharedPartialStore", "share_partials", *REMOVED_COST_NAMES,
                "SlabAllocator", "shm_bytes_resident",
                "private_bytes_resident", "shm_floats", "publish_header",
                # The shared-memory layer: process workers take their
                # sub-batches over the pipe.
                "ShmArena", "ShmSegment", "segment_name", "SEGMENT_PREFIX",
                "header_view", "header_nbytes", "header_residency",
                "HDR_", "HEADER_FIELDS", "header_name", "task_layout",
                "task_views", "_task_views", "_write_task",
                "_ensure_task_capacity", "_INITIAL_TASK_BYTES",
            ):
                assert name not in text, f"{name} in {path}"
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Call) and "PartialStore" in _names(
                    node.func
                ):
                    assert "shared" not in {
                        keyword.arg for keyword in node.keywords
                    }, f"PartialStore(shared=) at {path}:{node.lineno}"

    def test_nothing_imports_shared_memory(self):
        imports = [
            f"{path.relative_to(SRC_ROOT)}:{node.lineno}"
            for path in sorted(SRC_ROOT.rglob("*.py"))
            for node in ast.walk(_tree(path))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and any(
                "shared_memory" in name
                for name in [
                    getattr(node, "module", None) or "",
                    *(alias.name for alias in node.names),
                ]
            )
        ]
        assert imports == []
        assert not (SRC_ROOT / "fx" / "shm.py").exists()

    def test_one_frame_codec_in_procpool(self):
        """``pack_message`` / ``unpack_message`` are the only frame
        codec, defined once, in ``runtime/procpool.py``: no other
        runtime module pickles, unpacks a struct or reads arrays out
        of a byte buffer."""
        codecs, readers = [], []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            where = str(path.relative_to(SRC_ROOT))
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.FunctionDef) and node.name in (
                    "pack_message", "unpack_message"
                ):
                    codecs.append((where, node.name))
                if where.startswith("runtime/") and isinstance(
                    node, ast.Attribute
                ) and node.attr in (
                    "frombuffer", "dumps", "loads", "Struct"
                ) and _names(node.value) & {"np", "pickle", "struct"}:
                    readers.append(where)
        assert sorted(codecs) == [
            ("runtime/procpool.py", "pack_message"),
            ("runtime/procpool.py", "unpack_message"),
        ]
        assert set(readers) == {"runtime/procpool.py"}

    def test_cost_adapters_never_fork_on_the_join_arity(self):
        """Only ``TrainingPageProfile.join_pass_pages`` may test for a
        binary join (the BNL page formula genuinely differs); the
        multiplication counts are one formula at every arity."""
        offenders = []
        for top in _tree(SRC_ROOT / "fx" / "costs.py").body:
            if getattr(top, "name", None) == "TrainingPageProfile":
                continue
            for node in ast.walk(top):
                if not isinstance(node, ast.Compare):
                    continue
                sides = [node.left, *node.comparators]
                if any(isinstance(s, ast.Constant) for s in sides) and (
                    {"num_dimensions", "dim_widths"} & _names(node)
                ):
                    offenders.append(node.lineno)
        assert offenders == []


class TestOneMemoryBound:
    """The store's budget is the only thing that evicts: no function
    under ``src/repro`` takes a per-cache bound, the caches and
    ``PartialStore.acquire`` take no ``capacity*``, and the local-bound
    machinery — the bound-to-rows helper, the laddered row-at-a-time
    sweep and the admission rejection counter — is gone (the
    frequency-gated admission walk went with the sketch:
    ``TestOneVictimOrder``)."""

    PER_CACHE = {"cache_entries", "cache_floats"}
    BOUNDED = [
        ("serve/cache.py", "PartialCache", "__init__"),
        ("fx/sharding.py", "ShardedPartialCache", "__init__"),
        ("fx/store.py", "PartialStore", "acquire"),
    ]
    REMOVED = {
        "_evict_over_capacity", "_row_limit", "admission_rejections",
    }

    @staticmethod
    def _parameters(function) -> set[str]:
        args = function.args
        return {
            arg.arg
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg,
            )
            if arg is not None
        }

    @staticmethod
    def _nodes():
        for path in sorted(SRC_ROOT.rglob("*.py")):
            for node in ast.walk(_tree(path)):
                yield path.relative_to(SRC_ROOT), node

    def test_no_function_takes_a_per_cache_bound(self):
        offenders = [
            f"{path}:{node.lineno} {node.name}"
            for path, node in self._nodes()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and self._parameters(node) & self.PER_CACHE
        ]
        assert offenders == []

    @pytest.mark.parametrize(
        "path, cls, method", BOUNDED,
        ids=[f"{cls}.{method}" for _, cls, method in BOUNDED],
    )
    def test_caches_take_no_capacity(self, path, cls, method):
        parameters = self._parameters(_method(SRC_ROOT / path, cls, method))
        assert not [p for p in parameters if p.startswith("capacity")]

    def test_the_local_bound_machinery_is_gone(self):
        found = [
            f"{path}:{node.lineno}"
            for path, node in self._nodes()
            if getattr(node, "name", None) in self.REMOVED
            or getattr(node, "attr", None) in self.REMOVED
            or getattr(node, "id", None) in self.REMOVED
            or getattr(node, "arg", None) in self.REMOVED
        ]
        assert found == []

    def test_cache_stats_carry_no_bound(self):
        from dataclasses import fields

        from repro.serve.cache import CacheStats

        names = {spec.name for spec in fields(CacheStats)}
        assert not names & {
            "capacity", "capacity_floats", "admission_rejections"
        }
        # Kept, always 0, for the readers that add it to cross_evictions.
        assert "evictions" in names


class TestOneGovernor:
    """Every store runs the governor, with one watermark: no switch
    turns the recency clock or the governor call off, no constructor
    takes a second watermark, and the low watermark is stated once,
    beside the store's governor."""

    NULL_CHECKED = {"_clock", "_governor", "tick"}

    def test_the_store_takes_its_budget_and_its_ladder(self):
        init = _method(SRC_ROOT / "fx" / "store.py", "PartialStore", "__init__")
        assert TestOneMemoryBound._parameters(init) == {
            "self", "capacity_floats", "tiers",
        }

    def test_a_cache_cannot_be_built_without_its_governor(self):
        init = _method(
            SRC_ROOT / "fx" / "sharding.py", "ShardedPartialCache", "__init__"
        )
        # kw_defaults holds None for a keyword-only argument without one.
        defaults = dict(zip(
            (arg.arg for arg in init.args.kwonlyargs), init.args.kw_defaults
        ))
        assert "governor" in defaults and defaults["governor"] is None

    @pytest.mark.parametrize("path", ["serve/cache.py", "fx/sharding.py"])
    def test_no_clock_governor_or_tick_is_ever_absent(self, path):
        def named(node):
            return getattr(node, "id", getattr(node, "attr", None))

        found = [
            f"{path}:{node.lineno}"
            for node in ast.walk(_tree(SRC_ROOT / path))
            if isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(
                named(operand) in self.NULL_CHECKED
                for operand in (node.left, *node.comparators)
            )
        ]
        assert found == []

    def test_the_watermark_is_stated_once_beside_the_governor(self):
        found = [
            str(path.relative_to(SRC_ROOT))
            for path in sorted(SRC_ROOT.rglob("*.py"))
            for node in ast.walk(_tree(path))
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and any(
                isinstance(target, ast.Name)
                and target.id == "GOVERNOR_HYSTERESIS"
                for target in (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
            )
        ]
        assert found == ["fx/store.py"]


class TestOneVictimOrder:
    """The governor ranks victims one way, global LRU by access tick:
    the TinyLFU frequency sketch is gone, and so is the option that
    picked it on every surface that used to thread it."""

    REMOVED_NAMES = (
        "FrequencySketch", "_sketch", "ADMISSION_POLICIES",
        "TINYLFU_ADMISSION",
    )
    OPTION = {"admission", "cache_admission"}
    FUNCTIONS = [
        ("serve/cache.py", "PartialCache", "__init__"),
        ("fx/store.py", "PartialStore", "__init__"),
        ("core/api.py", None, "serve_runtime"),
    ]
    DATACLASSES = [
        ("runtime/service.py", "RuntimeConfig"),
        ("scenarios/spec.py", "RuntimeSpec"),
    ]

    def test_the_sketch_module_is_gone(self):
        assert not (SRC_ROOT / "fx" / "sketch.py").exists()

    def test_removed_names_stay_removed(self):
        found = [
            f"{path.relative_to(SRC_ROOT)}: {name}"
            for path in sorted(SRC_ROOT.rglob("*.py"))
            for name in self.REMOVED_NAMES
            if name in path.read_text(encoding="utf-8")
        ]
        assert found == []

    @pytest.mark.parametrize(
        "path, cls, name", FUNCTIONS,
        ids=[name if cls is None else f"{cls}.{name}"
             for _, cls, name in FUNCTIONS],
    )
    def test_no_function_takes_the_option(self, path, cls, name):
        if cls is None:
            (function,) = [
                node for node in _tree(SRC_ROOT / path).body
                if isinstance(node, ast.FunctionDef) and node.name == name
            ]
        else:
            function = _method(SRC_ROOT / path, cls, name)
        assert not TestOneMemoryBound._parameters(function) & self.OPTION

    @pytest.mark.parametrize(
        "path, cls", DATACLASSES, ids=[cls for _, cls in DATACLASSES]
    )
    def test_no_dataclass_carries_the_option(self, path, cls):
        (node,) = [
            node for node in _tree(SRC_ROOT / path).body
            if isinstance(node, ast.ClassDef) and node.name == cls
        ]
        fields = {
            item.target.id for item in node.body
            if isinstance(item, ast.AnnAssign)
        }
        assert fields and not fields & self.OPTION


class TestOneRecencyStamp:
    """A cached row carries one recency stamp, ``SlotTable.tick``, fresh
    per row from the store's clock: no per-table touch order beside it,
    no per-call tick, and no running residency counters — residency is
    read off the tier tables."""

    CACHE = SRC_ROOT / "serve" / "cache.py"
    REMOVED = {"seq", "_next_seq", "batch_tick"}
    COUNTERS = {"_compressed_floats", "_spilled_bytes"}

    def test_the_second_stamp_and_the_call_tick_are_gone(self):
        found = [
            node.lineno
            for node in ast.walk(_tree(self.CACHE))
            if self.REMOVED & {
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "arg", None), getattr(node, "name", None),
                getattr(node, "value", None)
                if isinstance(node, ast.Constant) else None,
            }
        ]
        assert found == []

    def test_a_resize_moves_the_key_and_the_stamp(self):
        (loop,) = [
            node
            for node in ast.walk(_method(self.CACHE, "SlotTable", "_resize"))
            if isinstance(node, ast.For)
        ]
        assert ast.literal_eval(loop.iter) == ("key", "tick")

    def test_residency_keeps_no_running_counter(self):
        (cls,) = [
            node for node in _tree(self.CACHE).body
            if isinstance(node, ast.ClassDef) and node.name == "PartialCache"
        ]
        assigned = [
            target.attr
            for node in ast.walk(cls)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for target in (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            if isinstance(target, ast.Attribute)
        ]
        assert assigned and not set(assigned) & self.COUNTERS


class TestOneLockPerCache:
    """One lock-guarded cache per fingerprint: no RID-hash shards and
    no batch pins.  ``get_many`` holds the cache's lock from lookup to
    the copy of its rows, so a governor sweep can only reach a cache
    between two batches, and nothing needs protecting from it."""

    SHARD_NAMES = ("_route", "shard_of", "shard_stats", "_stats_guard")
    PIN_NAMES = {"pin", "unpin", "pins"}

    def test_the_store_takes_no_shard_count(self):
        init = _method(SRC_ROOT / "fx" / "store.py", "PartialStore", "__init__")
        assert "num_shards" not in TestOneMemoryBound._parameters(init)

    def test_the_cache_module_has_no_pins(self):
        found = [
            node.lineno
            for node in ast.walk(_tree(SRC_ROOT / "serve" / "cache.py"))
            if getattr(node, "name", None) in self.PIN_NAMES
            or getattr(node, "attr", None) in self.PIN_NAMES
            or getattr(node, "id", None) in self.PIN_NAMES
            or getattr(node, "arg", None) in self.PIN_NAMES
        ]
        assert found == []

    def test_the_store_cache_only_adds_the_governor_call(self):
        (cls,) = [
            node
            for node in _tree(SRC_ROOT / "fx" / "sharding.py").body
            if isinstance(node, ast.ClassDef)
            and node.name == "ShardedPartialCache"
        ]
        assert [ast.unparse(base) for base in cls.bases] == ["PartialCache"]
        assert {
            item.name for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        } == {"__init__", "get_many"}

    def test_shard_routing_is_gone(self):
        pattern = re.compile(
            r"\b(" + "|".join(map(re.escape, self.SHARD_NAMES)) + r")\b"
        )
        found = [
            f"{path.relative_to(SRC_ROOT)}: {match.group(0)}"
            for path in sorted(SRC_ROOT.rglob("*.py"))
            for match in pattern.finditer(path.read_text(encoding="utf-8"))
        ]
        assert found == []


class TestOneCostModel:
    """Every published count, the validation helper and the decision
    rule are stated once, in ``fx/costs.py``, which sits *below* the
    model and serving packages."""

    COSTS = SRC_ROOT / "fx" / "costs.py"

    @staticmethod
    def _functions():
        """``(path, function node)`` for every function in the package."""
        for path in SRC_ROOT.rglob("*.py"):
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.FunctionDef):
                    yield path, node

    def test_no_cost_model_module_is_left(self):
        assert list(SRC_ROOT.rglob("cost_model.py")) == []

    def test_costs_imports_nothing_from_the_layers_above(self):
        imported = {
            node.module if isinstance(node, ast.ImportFrom) else alias.name
            for node in ast.walk(_tree(self.COSTS))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        above = ("repro.gmm", "repro.nn", "repro.serve", "repro.runtime")
        assert [m for m in imported if m.startswith(above)] == []

    def test_check_positive_is_defined_once(self):
        assert [
            str(path.relative_to(SRC_ROOT))
            for path, node in self._functions()
            if node.name == "_check_positive"
        ] == ["fx/costs.py"]

    def test_the_decision_rule_is_written_in_one_function(self):
        """Choosing FACTORIZED vs MATERIALIZED by an ordering
        comparison happens in ``CostModel.decide`` and nowhere else."""
        ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
        deciders = set()
        for path, function in self._functions():
            for node in ast.walk(function):
                if not isinstance(node, (ast.If, ast.IfExp)):
                    continue
                compares = any(
                    isinstance(test, ast.Compare)
                    and any(isinstance(op, ordering) for op in test.ops)
                    for test in ast.walk(node.test)
                )
                branches = (
                    [node.body, node.orelse] if isinstance(node, ast.IfExp)
                    else [*node.body, *node.orelse]
                )
                chosen = set().union(*(_names(b) for b in branches))
                if compares and {"FACTORIZED", "MATERIALIZED"} <= chosen:
                    deciders.add(
                        (str(path.relative_to(SRC_ROOT)), function.name)
                    )
        assert deciders == {("fx/costs.py", "decide")}

    def test_training_reads_the_counts_not_the_verdict(self):
        """Training's ``auto`` is the argmin of predicted seconds: no
        ``.strategy`` is read off ``decide()`` on its way, and
        ``core/training._choose`` is its one caller under ``src/``."""
        functions = {
            node.name: node for node in ast.walk(_tree(self.COSTS))
            if isinstance(node, ast.FunctionDef)
        }
        read = {
            name: {
                node.attr for node in ast.walk(functions[name])
                if isinstance(node, ast.Attribute)
            }
            for name in ("recommend_training_strategy", "arm_features")
        }
        assert "decide" in read["recommend_training_strategy"]
        assert "strategy" not in set().union(*read.values())
        assert _callers("recommend_training_strategy") == {"core/training.py"}
        training = _tree(SRC_ROOT / "core" / "training.py")
        assert {
            node.name for node in ast.walk(training)
            if isinstance(node, ast.FunctionDef)
            and "recommend_training_strategy" in _names(node)
        } == {"_choose"}

    def test_auto_builds_one_cost_model(self):
        """``_choose`` and everything it calls in ``core/training.py``
        / ``fx/costs.py`` construct the training model once — the
        record is read off the decision, not recomputed."""
        functions = {
            node.name: node
            for path in (SRC_ROOT / "core" / "training.py", self.COSTS)
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.FunctionDef)
        }
        constructions, seen = [], set()
        frontier = ["_choose"]
        while frontier:
            name = frontier.pop()
            if name in seen or name not in functions:
                continue
            seen.add(name)
            for node in ast.walk(functions[name]):
                if not isinstance(node, ast.Call):
                    continue
                called = (
                    node.func.id if isinstance(node.func, ast.Name)
                    else getattr(node.func, "attr", None)
                )
                if called in ("training_cost_model", "CostModel"):
                    constructions.append((name, called))
                frontier.append(called)
        assert sorted(constructions) == [
            ("recommend_training_strategy", "training_cost_model"),
            ("training_cost_model", "CostModel"),
        ]

    def test_both_factories_return_the_one_class(self):
        from repro.fx.costs import CostModel

        shape = dict(d_s=3, dim_widths=(4,), width_param=2)
        assert type(repro.serving_cost_model("nn", **shape)) is CostModel
        assert type(repro.training_cost_model("gmm", **shape)) is CostModel
        assert CostModel.__subclasses__() == []


class TestOneEStep:
    """Eq. 2 over Eq. 19 is written once: training, serving and
    maintenance score a mixture through ``gmm.model.posteriors`` and
    the stacked ``linalg`` kernels — no per-component head, no slab
    geometry, no densified maintenance pass."""

    HEADS = ("serve/predictor.py", "serve/partials.py", "gmm/model.py")
    #: ``K`` Cholesky factorizations of ``(d, d)`` parameter matrices —
    #: once per EM iteration, no data row in sight.
    PARAMETER_ONLY = {("gmm/model.py", "ComponentPrecisions.__init__")}
    SLAB_NAMES = (
        "lr_offset", "cross_fact_slice", "centered_slice", "cross_dim_slice",
        "component_slab", "per_component", "_lr_block", "_cross_fact_block",
        "_cross_dim_block", "_mean_block", "_mean_fact", "_prec_fact",
        "_log_dets",
    )

    @staticmethod
    def _functions(tree: ast.Module):
        """``(qualified name, node)`` of every function, methods as
        ``Class.method``."""
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                yield top.name, top
            elif isinstance(top, ast.ClassDef):
                for item in top.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{top.name}.{item.name}", item

    @pytest.mark.parametrize("module", HEADS)
    def test_no_einsum_and_no_loop_over_the_components(self, module):
        tree = _tree(SRC_ROOT / module)
        assert "einsum" not in _names(tree)
        loops = [
            (module, name)
            for name, function in self._functions(tree)
            for node in ast.walk(function)
            if isinstance(node, (ast.For, ast.comprehension))
            and isinstance(node.iter, ast.Call)
            and getattr(node.iter.func, "id", "") == "range"
            and {"k", "n_components"} & _names(node.iter)
        ]
        assert set(loops) <= self.PARAMETER_ONLY

    def test_no_einsum_anywhere_under_serve_or_gmm(self):
        for package in ("serve", "gmm"):
            for path in (SRC_ROOT / package).rglob("*.py"):
                assert "einsum" not in path.read_text(encoding="utf-8"), path

    def test_the_stacked_kernel_has_one_caller_outside_linalg(self):
        callers = [
            (str(path.relative_to(SRC_ROOT)), name)
            for path in SRC_ROOT.rglob("*.py")
            if path.parent.name != "linalg"
            for name, function in self._functions(_tree(path))
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", "") == "stacked_quadratic_form"
        ]
        assert callers == [("gmm/model.py", "_log_density_tiles")]

    def test_partial_rows_are_the_training_tables_rows(self):
        compute = _method(
            SRC_ROOT / "serve" / "partials.py", "GMMPartialBuilder", "compute"
        )
        assert "quadform_table" in _names(compute)
        tables = _tree(SRC_ROOT / "linalg" / "quadform.py")
        (batch,) = [
            node for node in tables.body
            if getattr(node, "name", "") == "quadform_tables"
        ]
        assert "quadform_table" in _names(batch)

    def test_the_slab_geometry_is_gone(self):
        from repro.serve.partials import GMMPartialBuilder

        public = {
            name for name in vars(GMMPartialBuilder)
            if not name.startswith("_")
        }
        assert public == {"width", "fingerprint", "compute", "split"}
        for path in SRC_ROOT.rglob("*.py"):
            used = _names(_tree(path))
            for name in self.SLAB_NAMES:
                assert name not in used, f"{name} in {path}"

    def test_every_gmm_predictor_output_reads_the_one_call(self):
        predictor = SRC_ROOT / "serve" / "predictor.py"
        calls = [
            name
            for name, function in self._functions(_tree(predictor))
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", "") in (
                "posteriors", "component_log_densities"
            )
        ]
        assert sorted(calls) == [
            "GMMPredictor._posteriors",
            "GMMPredictor.log_gaussians",
        ]
        assert _callers("distinct_partials") == {
            "serve/predictor.py", "fx/gather.py",
        }

    def test_maintenance_never_densifies(self):
        text = (SRC_ROOT / "maintain" / "stats.py").read_text(encoding="utf-8")
        assert "densify(" not in text
        assert "GaussianMixtureModel" not in text
        stats = SRC_ROOT / "maintain" / "stats.py"
        # the fold finishes the walk's tile sums and reads the per-RID
        # aggregates off them: no walk and no grouped reduction of its own
        fold = _method(stats, "SuffStats", "_fold")
        assert {"finish_sum", "finish_outer"} <= _names(fold)
        assert not {
            "sum_rows", "mu_sums", "sigma_sums", "posteriors",
            "em_sums", "moment_sums",
        } & _names(fold)
        # the mixture's walk is the training step's own
        walk = _method(stats, "GMMSuffStats", "_walk")
        assert "em_sums" in _names(walk)
        assert "posteriors" not in text


class TestAnUpdateCostsWhatItTouches:
    """Maintenance keeps nothing sized by two dimensions' row counts
    and scans nothing to apply an event: the γ co-occurrence is the
    sparse pair table (no scatter-add into a cube, no contraction over
    a ``(K, |U|, m_j)`` slice), the maintainer reads an event's rows at
    the heap positions it carries, and a cold miss copies per page run
    instead of masking every position once per page."""

    MAINTAIN = SRC_ROOT / "maintain"

    def test_no_dense_pair_structure_under_maintain(self):
        for path in sorted(self.MAINTAIN.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert "add.at" not in text, path.name
            assert 'einsum("kus' not in text, path.name
        stats = self.MAINTAIN / "stats.py"
        allocate = _method(stats, "SuffStats", "__init__")
        assert "_pair_tables" in _names(allocate)
        grow = _method(stats, "SuffStats", "fold_appended_dimension")
        assert "pairs" not in _names(grow)

    @pytest.mark.parametrize(
        "method", ["_apply_event", "_fact_rows_at", "_sgd_step"]
    )
    def test_the_maintainer_reads_an_events_rows_by_position(self, method):
        body = _method(
            self.MAINTAIN / "maintainer.py", "ModelMaintainer", method
        )
        called = {
            node.func.attr for node in ast.walk(body)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
        }
        assert not called & {"keys", "features", "scan"}
        assert "read_rows" in called

    @pytest.mark.parametrize(
        "path", ["serve/partials.py", "storage/catalog.py"]
    )
    def test_a_cold_miss_masks_no_page(self, path):
        tree = _tree(SRC_ROOT / path)
        masks = [
            ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and "page_no" in _names(node)
        ]
        assert masks == []
        # Both read through the one page-run loop over the pool.
        assert "read_rows" in _names(tree)
        assert "get_page" not in _names(tree)
        reader = _method(
            SRC_ROOT / "storage" / "buffer.py", "BufferPool", "read_rows"
        )
        assert {"page_runs", "get_page"} <= _names(reader)


class TestOneKeyIndex:
    """A relation sorts its key column once (``Relation.key_index``);
    every call-time key lookup probes that index, and only the BNL
    join's block-local codes build one of their own."""

    def test_one_construction_site(self):
        assert _callers("KeyIndex") == {
            "linalg/groupsum.py", "storage/relation.py",
        }
        assert _callers("codes_for_keys") == {"join/bnl.py"}

    @pytest.mark.parametrize(
        "path",
        [
            *sorted((SRC_ROOT / "serve").glob("*.py")),
            *sorted((SRC_ROOT / "maintain").glob("*.py")),
            SRC_ROOT / "storage" / "catalog.py",
        ],
        ids=lambda path: str(path.relative_to(SRC_ROOT)),
    )
    def test_no_key_column_scan(self, path):
        scans = [
            ast.unparse(node) for node in ast.walk(_tree(path))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys" and not node.args
        ]
        assert scans == []


class TestTargetedWakeUps:
    """An arrival wakes one worker at most — the one lingering on its
    key, or one idle worker — never every thread blocked on the queue."""

    def test_put_calls_no_notify_all(self):
        put = _method(SRC_ROOT / "runtime" / "queue.py", "RequestQueue", "put")
        assert "notify_all" not in _names(put)


class TestEachMaintainerOwnsItsStatistics:
    """No registry shares one statistics object between maintainers:
    two maintainers over one join would fold every row into it twice."""

    def test_the_shared_statistics_store_is_gone(self):
        assert not (SRC_ROOT / "fx" / "statstore.py").exists()
        found = [
            str(path.relative_to(SRC_ROOT))
            for path in sorted(SRC_ROOT.rglob("*.py"))
            if re.search(
                r"StatsStore|stats_store", path.read_text(encoding="utf-8")
            )
        ]
        assert found == []


class TestOneSetOfStatistics:
    """Ridge's statistics are the mixture's at ``K = 1``, γ ≡ 1: one
    class builds, folds and applies every delta; a kind keeps its walk
    (``_walk``) and ``solve``, ridge its target column, ``fit_ridge``
    folds the same one walk per batch over the same augmented design,
    and every solve — training's, the maintained mixture's and ridge's —
    is the one M-step ``gmm/base.m_step``."""

    STATS = SRC_ROOT / "maintain" / "stats.py"
    SHARED = (
        "build", "_fold", "apply_dimension_update",
        "fold_appended_dimension", "fold_appended_facts",
    )

    def _classes(self):
        return {
            node.name: node for node in _tree(self.STATS).body
            if isinstance(node, ast.ClassDef)
        }

    def test_each_step_is_defined_once(self):
        defined = [
            node.name for node in ast.walk(_tree(self.STATS))
            if isinstance(node, ast.FunctionDef)
        ]
        for name in self.SHARED:
            assert defined.count(name) == 1, name
            _method(self.STATS, "SuffStats", name)

    def test_a_kind_keeps_its_weights_and_its_solve(self):
        classes = self._classes()
        for kind in ("LinearSuffStats", "GMMSuffStats"):
            node = classes[kind]
            assert [ast.unparse(base) for base in node.bases] == ["SuffStats"]
            methods = {
                item.name for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            assert methods == {"__init__", "_walk", "solve"}, kind
        ridge = _method(self.STATS, "LinearSuffStats", "_walk")
        assert "ridge_sums" in _names(ridge)

    @staticmethod
    def _function(path: Path, name: str) -> ast.FunctionDef:
        (found,) = [
            node for node in _tree(path).body
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        return found

    def test_fit_ridge_walks_each_batch_once(self):
        models = SRC_ROOT / "linear" / "models.py"
        fit = self._function(models, "fit_ridge")
        assert {"ridge_sums", "ridge_solution"} <= _names(fit)
        assert not {"mu_sums", "sigma_sums", "moment_sums"} & _names(fit)
        (loop,) = [
            node for node in ast.walk(fit) if isinstance(node, ast.For)
        ]
        assert ast.unparse(loop.iter) == "access.batches()"
        walks = [
            node for node in ast.walk(loop)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "ridge_sums"
        ]
        assert len(walks) == 1
        # one unit-weight walk: the augmented design's moment tile sums
        walk = self._function(models, "ridge_sums")
        calls = [
            ast.unparse(node.func) for node in ast.walk(walk)
            if isinstance(node, ast.Call)
        ]
        assert calls.count("moment_sums") == 1
        assert "with_target" in calls
        solve = _method(self.STATS, "LinearSuffStats", "solve")
        assert "ridge_solution" in _names(solve)
        assert _callers("factorized_count_outer") == set()
        assert "factorized_count_outer" not in vars(repro.linalg)

    def test_one_m_step(self):
        defined = [
            str(path.relative_to(SRC_ROOT))
            for path in SRC_ROOT.rglob("*.py")
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.FunctionDef) and node.name == "m_step"
        ]
        assert defined == ["gmm/base.py"]
        base = SRC_ROOT / "gmm" / "base.py"
        assert "CANCELLATION_LIMIT" in _names(self._function(base, "m_step"))
        assert "m_step" in _names(self._function(base, "run_em"))
        assert "m_step" in _names(_method(self.STATS, "GMMSuffStats", "solve"))
        ridge = self._function(SRC_ROOT / "linear" / "models.py", "ridge_solution")
        assert "m_step" in _names(ridge)
        assert _callers("m_step") == {
            "gmm/base.py", "maintain/stats.py", "linear/models.py",
        }
        # no second closed form: only m_step reads the cancellation limit
        readers = {
            str(path.relative_to(SRC_ROOT))
            for path in SRC_ROOT.rglob("*.py")
            if "CANCELLATION_LIMIT" in _names(_tree(path))
        }
        assert readers == {"gmm/base.py"}
        for kind in ("GMMSuffStats", "LinearSuffStats"):
            solve = _method(self.STATS, kind, "solve")
            assert not {"einsum", "outer", "diagonal"} & _names(solve)

    def test_the_k1_wrappers_are_gone(self):
        import repro.linalg.outer as outer

        for module in (repro.linalg, outer):
            assert not [
                name for name in vars(module)
                if name.startswith("factorized_weighted_")
            ]
        for name in ("_one_tile", "_as_column"):
            assert name not in vars(outer)
            assert _callers(name) == set()

    @pytest.mark.parametrize("method", ["_fold_fact_append", "_refresh_model"])
    def test_the_maintainer_does_not_branch_on_the_kind(self, method):
        body = _method(
            SRC_ROOT / "maintain" / "maintainer.py", "ModelMaintainer", method
        )
        kinds = {
            node.value for node in ast.walk(body)
            if isinstance(node, ast.Constant)
        }
        assert not kinds & {"linear", "gmm"}


class TestOneSetOfBooks:
    """Each count is kept once, in a book of the component that sees
    its events (the record ``stats()`` / ``runtime_stats()`` return,
    where there is one), and ``/metrics`` samples it through that
    component's collector: the registry owns no instrument, so nothing
    counts through it."""

    def test_no_series_is_counted_through_the_registry(self):
        from repro.obs.metrics import MetricsRegistry

        paths = sorted(SRC_ROOT.rglob("*.py"))
        # ``<registry>.counter/gauge/histogram`` calls (a collector's
        # ``buffer.*`` samples are not instruments).
        instruments = [
            f"{path.relative_to(SRC_ROOT)}:{call.lineno}"
            for path in paths
            for call in ast.walk(_tree(path))
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("counter", "gauge", "histogram")
            and _names(call.func.value) != {"buffer"}
        ]
        assert instruments == []
        assert [
            path.name for path in paths
            if "_make_instruments" in path.read_text(encoding="utf-8")
        ] == []
        assert not {"counter", "gauge", "histogram"} & set(
            dir(MetricsRegistry)
        )

    def test_the_registry_keeps_only_its_collector_list(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        assert {
            name for name in dir(registry) if not name.startswith("__")
        } == {
            "enabled", "_lock", "_collectors",
            "register_collector", "unregister_collector", "snapshot",
        }

    def test_each_reply_carries_exactly_the_residency_record(
        self, db, monkeypatch
    ):
        """A worker reply's books are the store's ``Residency`` and
        nothing else: rows and batches are attributed from each EXEC
        reply's ``ExecMeta``, invalidations from the INVALIDATE
        replies' drop counts."""
        import warnings

        import numpy as np

        from repro.core.api import fit_gmm, serve_runtime
        from repro.data.synthetic import StarSchemaConfig, generate_star
        from repro.runtime import procpool
        from repro.serve.cache import Residency

        spec = generate_star(db, StarSchemaConfig.binary(
            n_s=120, n_r=10, d_s=3, d_r=4, seed=5,
        )).spec
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gmm = fit_gmm(db, spec, n_components=2, max_iter=2, seed=1)
        fact = spec.resolve(db).fact
        rows = fact.scan()
        features = fact.project_features(rows)
        fks = [rows[:, fact.schema.fk_position("R1")].astype(np.int64)]
        records, unpack = [], procpool.unpack_message

        def recording(data):
            frame = unpack(data)
            records.append(frame[2])        # (payload, residency)
            return frame

        monkeypatch.setattr(procpool, "unpack_message", recording)
        with serve_runtime(
            db, num_workers=2, max_wait_ms=0.0, executor="process",
            memory_budget=64,
        ) as rt:
            rt.register_gmm("g", gmm, spec)
            rt.predict("g", features, fks)
            rt.runtime_stats()
            row = db["R1"].scan()[:1].copy()
            row[:, 1:] += 1.0
            db.update_rows("R1", [0], row)
        # Each worker: ready, register, exec, stats, invalidate.
        assert len(records) >= 2 * 5
        for books in records:
            assert len(books) == 2 and type(books[1]) is Residency
        assert not {"batches", "rows", "invalidated"} & set(
            Residency._fields
        )

    def test_the_runtime_keeps_one_batch_size_book(self):
        tree = _tree(RUNTIME_SERVICE)
        assert not _names(tree) & {
            "_batch_size_bucket", "_batch_histogram", "_batches",
            "Counter",
        }
        cells = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _names(node.func) == {"HistogramCell"}
            and _names(node) & {"SIZE_BUCKETS"}
        ]
        assert len(cells) == 1

    def test_a_worker_counts_its_rows_under_one_name(self):
        from repro.runtime.service import WorkerStats

        assert not hasattr(WorkerStats, "rows_executed")


class TestOneEvaluationTable:
    """Section VII is the ``FIGURES`` table and ``run_figure``: no
    function per figure panel, and ``run_sweep`` takes one config per
    point and no options."""

    BENCH = SRC_ROOT / "bench"

    def test_no_function_per_figure_or_table(self):
        found = [
            f"{path.name}:{node.name}"
            for path in sorted(self.BENCH.glob("*.py"))
            for node in ast.walk(_tree(path))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith(("figure", "table"))
        ]
        assert found == []

    def test_run_sweep_takes_no_keyword_only_options(self):
        (run_sweep,) = [
            node for node in _tree(self.BENCH / "harness.py").body
            if isinstance(node, ast.FunctionDef) and node.name == "run_sweep"
        ]
        assert run_sweep.args.kwonlyargs == []
        assert run_sweep.args.defaults == []


class TestBenchmarkHooksLand:
    """``benchmarks/e2e/trace.py`` wraps methods it looks up with
    ``vars(cls)[name]`` — they must be defined on the class itself."""

    def test_traced_methods_are_defined_on_their_classes(self):
        from repro.fx.dedup import DimensionDedup
        from repro.fx.sharding import ShardedPartialCache
        from repro.fx.store import PartialStore
        from repro.gmm.engines import DenseEMEngine, FactorizedEMEngine
        from repro.runtime.planner import BatchPlanner
        from repro.runtime.queue import RequestQueue
        from repro.runtime.service import ServingRuntime
        from repro.serve.cache import PartialCache
        from repro.serve.partials import GMMPartialBuilder, NNPartialBuilder
        from repro.serve.service import ModelService

        em_steps = [
            (engine, step)
            for engine in (DenseEMEngine, FactorizedEMEngine)
            for step in (
                "estep_batch", "mu_accumulate_batch", "sigma_accumulate_batch"
            )
        ]
        for cls, method in (
            *em_steps,
            (GMMPartialBuilder, "compute"),
            (NNPartialBuilder, "compute"),
            (DimensionDedup, "gather"),
            (ModelService, "predict"),
            (ModelService, "swap_model"),
            (ServingRuntime, "submit"),
            (BatchPlanner, "plan"),
            (RequestQueue, "take_batch"),
            (PartialStore, "enforce_budget"),
            (ShardedPartialCache, "get_many"),
            (PartialCache, "get_many"),
        ):
            assert method in vars(cls), f"{cls.__name__}.{method}"

    def test_each_family_defines_predict_in_the_predictor_module(self):
        """``serve.predictor.head`` wraps every ``predict`` a class of
        ``repro.serve.predictor`` defines itself — one per family must
        be on each concrete predictor's MRO."""
        from repro.serve import predictor

        for name in ("GMMPredictor", "NNPredictor"):
            owners = [
                cls for cls in getattr(predictor, name).__mro__
                if "predict" in vars(cls)
                and cls.__module__ == predictor.__name__
            ]
            assert owners, name

    def test_the_quadform_kernels_stay_public_module_functions(self):
        """The tracer's ``linalg`` row is every public function of
        ``linalg.quadform``, rebound wherever it was imported by name."""
        from repro.gmm import model
        from repro.linalg import quadform
        from repro.serve import partials

        assert model.stacked_quadratic_form is quadform.stacked_quadratic_form
        assert model.quadform_tables is quadform.quadform_tables
        assert partials.quadform_table is quadform.quadform_table


class TestOnePredictorPerKind:
    """One serving predictor per model kind: the materialized arm is the
    factorized predictor's request with every dimension inlined, taken
    per call through ``strategy=`` — so a registration, adaptive or
    not, builds one predictor, resolves its join once and builds its
    dimension lookups once."""

    PREDICTOR = SRC_ROOT / "serve" / "predictor.py"
    REMOVED = (
        "MaterializedGMMPredictor", "MaterializedNNPredictor",
        "FactorizedGMMPredictor", "FactorizedNNPredictor",
        "_FactorizedCacheMixin", "_GMMPredictorMixin", "_PREDICTORS",
    )

    def test_one_concrete_predictor_per_kind(self):
        classes = {
            node.name: {base.id for base in node.bases}
            for node in _tree(self.PREDICTOR).body
            if isinstance(node, ast.ClassDef)
        }
        assert classes == {
            "_RequestValidator": set(),
            "_ServingPredictor": {"_RequestValidator"},
            "GMMPredictor": {"_ServingPredictor"},
            "NNPredictor": {"_ServingPredictor"},
        }

    def test_the_record_holds_one_predictor(self):
        from dataclasses import fields

        from repro.serve.core import RegisteredModel

        names = {f.name for f in fields(RegisteredModel)}
        assert "predictor" in names
        assert not {"factorized", "materialized"} & names
        assert not {"factorized", "materialized"} & set(vars(RegisteredModel))

    def test_the_core_builds_one_predictor(self):
        build = _method(CORE, "ServingCore", "_build")
        calls = [
            node for node in ast.walk(build)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", "") == "make_predictor"
        ]
        assert len(calls) == 1
        loops = (ast.For, ast.While, ast.comprehension)
        assert not any(isinstance(n, loops) for n in ast.walk(build))

    def test_the_core_passes_the_arm_not_a_predictor(self):
        """``choose`` returns the batch's arm; ``_run`` hands it to the
        one predictor as ``strategy=``."""
        run = _method(CORE, "ServingCore", "_run")
        keywords = {
            keyword.arg
            for node in ast.walk(run) if isinstance(node, ast.Call)
            for keyword in node.keywords
        }
        assert {"plan", "strategy"} <= keywords
        choose = _method(CORE, "RegisteredModel", "choose")
        assert "predictor" not in _names(choose)

    def test_the_old_names_stay_gone(self):
        from repro import serve
        from repro.serve import predictor

        for path in SRC_ROOT.rglob("*.py"):
            used = _names(_tree(path)) | {
                node.name for node in ast.walk(_tree(path))
                if isinstance(node, ast.ClassDef)
            }
            for name in self.REMOVED:
                assert name not in used, f"{name} in {path}"
        for name in self.REMOVED:
            for module in (repro, serve, predictor):
                assert not hasattr(module, name), (module.__name__, name)


class TestNoPerKeyPythonOnTheLookupPath:
    """A warm dense-key hit is one ``take`` of the direct-address map
    and one slab ``take`` (a sparse key is found by one ``searchsorted``
    of the fallback index instead of the map), and a governor sweep
    moves one block per rung.  So the cache's per-batch entry points,
    and the ladder's demote / promote / invalidate path under them, are
    array code with no Python loop whose length grows with the batch,
    a miss batch's insert included."""

    CACHE = SRC_ROOT / "serve" / "cache.py"
    SHARDING = SRC_ROOT / "fx" / "sharding.py"
    GUARDED = [
        (CACHE, "PartialCache", "get_many"),
        (CACHE, "PartialCache", "_insert"),
        (CACHE, "PartialCache", "invalidate"),
        (CACHE, "PartialCache", "evict"),
        (CACHE, "PartialCache", "eviction_candidates"),
        (CACHE, "PartialCache", "clear"),
        (CACHE, "PartialCache", "_promote"),
        (CACHE, "PartialCache", "_demote"),
        (CACHE, "PartialCache", "_settle"),
        (CACHE, "PartialCache", "_take_compressed"),
        (CACHE, "PartialCache", "_take_spilled"),
        (CACHE, "PartialCache", "_readmit"),
        (CACHE, "SlotTable", "find"),
        (CACHE, "SlotTable", "put"),
        (SHARDING, "ShardedPartialCache", "get_many"),
    ]

    @staticmethod
    def _derived_from_keys(function: ast.FunctionDef) -> set[str]:
        """Names (transitively) assigned from an expression that
        mentions ``keys`` — what a per-key loop would iterate over."""
        tainted = {"keys"}
        grew = True
        while grew:
            grew = False
            for node in ast.walk(function):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    if node.value is None or not _names(node.value) & tainted:
                        continue
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        for name in ast.walk(target):
                            if (
                                isinstance(name, ast.Name)
                                and name.id not in tainted
                            ):
                                tainted.add(name.id)
                                grew = True
        return tainted

    @pytest.mark.parametrize(
        "path, cls, method", GUARDED,
        ids=[f"{cls}.{method}" for _, cls, method in GUARDED],
    )
    def test_no_tolist_and_no_loop_over_the_keys(self, path, cls, method):
        function = _method(path, cls, method)
        tainted = self._derived_from_keys(function)
        offenders = []
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "tolist"
            ):
                offenders.append((node.lineno, ".tolist()"))
            iterables = (
                [node.iter] if isinstance(node, (ast.For, ast.comprehension))
                else []
            )
            for iterable in iterables:
                if _names(iterable) & tainted:
                    offenders.append((iterable.lineno, "loop over keys"))
            if isinstance(node, ast.While):
                offenders.append((node.lineno, "while loop"))
        assert offenders == []

    def test_the_spill_slab_has_one_write_method(self):
        """Rows reach a spill heap through ``SpillSlab.put`` alone —
        one ``append`` and one ``update_rows`` call site, no per-row
        twin beside the block write."""
        tiers = _tree(SRC_ROOT / "fx" / "tiers.py")
        writers = {
            function.name: [
                node.func.attr for node in ast.walk(function)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "update_rows")
            ]
            for cls in tiers.body
            if isinstance(cls, ast.ClassDef) and cls.name == "SpillSlab"
            for function in cls.body
            if isinstance(function, ast.FunctionDef)
        }
        assert {name: calls for name, calls in writers.items() if calls} == {
            "put": ["update_rows", "append"],
        }

    def test_ordered_dict_is_gone_from_the_cache_module(self):
        tree = _tree(self.CACHE)
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert "OrderedDict" not in imported
        assert "OrderedDict" not in _names(tree)
