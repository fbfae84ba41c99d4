"""Structural invariants of the one serving core (AST scans, in the
style of ``tests/fx/test_single_dedup.py``).

``ModelService``, the thread runtime and the process runtime are three
configurations of :class:`repro.serve.core.ServingCore`; these tests
keep a second copy of its build / plan / swap logic from growing back:
predictors and planners are constructed in the core alone, the runtime
facade never branches on the executor kind outside construction, both
``swap_model`` methods are delegations, and the process worker's
message handlers hold framing, not lifecycle logic.  The same goes for
the partial-cache stack underneath (``TestOneCacheStack``), its one
memory bound (``TestOneMemoryBound``) and its one lock per cache
(``TestOneLockPerCache``), the cost model both choosers
call (``TestOneCostModel``), the mixture
E-step serving, maintenance and training share (``TestOneEStep``) and
the update → flush → cold-miss path (``TestAnUpdateCostsWhatItTouches``).
"""

import ast
import re
from pathlib import Path

import pytest

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent
CORE = SRC_ROOT / "serve" / "core.py"
RUNTIME_SERVICE = SRC_ROOT / "runtime" / "service.py"


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


class TestFacadesDelegate:
    @pytest.mark.parametrize(
        "path, cls",
        [
            (SRC_ROOT / "serve" / "service.py", "ModelService"),
            (RUNTIME_SERVICE, "ServingRuntime"),
        ],
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
        allocations = [
            node.lineno
            for node in ast.walk(_tree(SRC_ROOT / "serve" / "cache.py"))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "allocate"
        ]
        assert len(allocations) == 1

    def test_removed_names_stay_removed(self):
        for path in SRC_ROOT.rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            for name in (
                "SharedPartialStore", "share_partials", *REMOVED_COST_NAMES
            ):
                assert name not in text, f"{name} in {path}"
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Call) and "PartialStore" in _names(
                    node.func
                ):
                    assert "shared" not in {
                        keyword.arg for keyword in node.keywords
                    }, f"PartialStore(shared=) at {path}:{node.lineno}"

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
    sweep, the TinyLFU admission walk and its rejection counter — is
    gone."""

    PER_CACHE = {"cache_entries", "cache_floats"}
    BOUNDED = [
        ("serve/cache.py", "PartialCache", "__init__"),
        ("fx/sharding.py", "ShardedPartialCache", "__init__"),
        ("fx/store.py", "PartialStore", "acquire"),
    ]
    REMOVED = {
        "_evict_over_capacity", "_row_limit", "_tinylfu_admit",
        "admission_rejections",
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
            "_GMMPredictorMixin._posteriors",
            "_GMMPredictorMixin.log_gaussians",
        ]
        assert _callers("distinct_partials") == {
            "serve/predictor.py", "fx/gather.py",
        }

    def test_maintenance_never_densifies(self):
        text = (SRC_ROOT / "maintain" / "stats.py").read_text(encoding="utf-8")
        assert "densify(" not in text
        assert "GaussianMixtureModel" not in text
        fold = _method(
            SRC_ROOT / "maintain" / "stats.py", "GMMSuffStats", "_fold"
        )
        assert {"posteriors", "mu_sums", "sigma_sums"} <= _names(fold)


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
        for cls in ("LinearSuffStats", "GMMSuffStats"):
            build = _method(self.MAINTAIN / "stats.py", cls, "build")
            assert "_pair_tables" in _names(build)
            grow = _method(
                self.MAINTAIN / "stats.py", cls, "fold_appended_dimension"
            )
            assert "pairs" not in _names(grow)

    @pytest.mark.parametrize("method", ["_apply_event", "_fact_rows_at"])
    def test_the_maintainer_reads_an_events_rows_by_position(self, method):
        # ``_sgd_step`` keeps its key scans: the NN retains no key
        # index to find a batch's RIDs in.
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

    def test_a_cold_miss_masks_no_page(self):
        tree = _tree(SRC_ROOT / "serve" / "partials.py")
        masks = [
            ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and "page_no" in _names(node)
        ]
        assert masks == []
        lookup = _method(
            SRC_ROOT / "serve" / "partials.py", "DimensionLookup",
            "features_for",
        )
        assert {"page_runs", "get_page"} <= _names(lookup)
        # ... and sorts the key column once, not once per call.
        assert _callers("KeyIndex") == {
            "linalg/groupsum.py", "serve/partials.py",
        }
        assert "codes_for_keys" not in _names(tree)


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

        for name in (
            "FactorizedGMMPredictor", "MaterializedGMMPredictor",
            "FactorizedNNPredictor", "MaterializedNNPredictor",
        ):
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


class TestNoPerKeyPythonOnTheLookupPath:
    """A warm hit is one ``searchsorted`` + one ``take``, a governor
    sweep one block per rung: the cache's per-batch entry points — and
    the ladder's demote / promote / invalidate path under them — are
    array code, with no Python loop whose length grows with the batch —
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
