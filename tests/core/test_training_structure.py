"""Structural invariants of the one training path (AST scans, in the
manner of ``tests/serve/test_core_structure.py``).

The paper's 2 models × 3 strategies is stated once, in
``core/training.py``; these tests keep the hand-written matrix from
growing back: access paths are opened in one module, every arm of a
kind reads one batch type through one engine, none of the per-cell
names the fold deleted returns, the training series have one
registration site, and the external tracer of ``benchmarks/e2e`` still
finds everything it wraps.  The model surface offers only what the
paper trains with: one loss, one GMM seeding, four activations and one
linear fit.
"""

import ast
import dataclasses
import importlib.util
import re
from pathlib import Path

import pytest

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = SRC_ROOT.parents[1]

ACCESS_CONSTRUCTORS = (
    "StreamingJoin", "FactorizedJoin", "MaterializedTable",
    "materialize_join",
)
# Everything the fold into ``train(kind, strategy)`` deleted.
REMOVED = re.compile(
    r"fit_[msf]_(gmm|nn)|(GMM|NN)_ALGORITHMS|_(GMM|NN)_FITTERS"
    r"|compare_(gmm|nn)_strategies|run_(gmm|nn)_sweep|grouped_backward"
)


def _modules():
    for path in sorted(SRC_ROOT.rglob("*.py")):
        yield str(path.relative_to(SRC_ROOT)), ast.parse(
            path.read_text(encoding="utf-8")
        )


def _identifiers(tree: ast.Module) -> set[str]:
    """Every name a module defines, imports, reads or passes."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.update((node.name, node.asname or node.name))
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            found.add(node.arg)
    return found


@pytest.mark.parametrize("name", ACCESS_CONSTRUCTORS)
def test_access_paths_are_opened_in_one_module(name):
    callers = set()
    for module, tree in _modules():
        if module.startswith("join/"):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            if called == name:
                callers.add(module)
    assert callers == {"core/training.py"}


class TestOneBatchOneEnginePerKind:
    """M- and S- batches are the factorized batch with every dimension
    inlined, so there is one batch class and each kind runs one engine
    on all three arms."""

    def test_one_batch_class(self):
        tree = ast.parse(
            (SRC_ROOT / "join" / "batches.py").read_text(encoding="utf-8")
        )
        classes = [
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        ]
        assert classes == ["Batch"]

    def test_each_kind_names_one_engine(self):
        from repro.core.training import ACCESS, KINDS, AccessPath, ModelKind
        from repro.gmm.engines import FactorizedEMEngine
        from repro.nn.engines import FactorizedNNEngine

        classes = {
            field.name for field in dataclasses.fields(ModelKind)
            if field.type == "type"
        }
        assert classes == {"engine"}
        assert KINDS["gmm"].engine is FactorizedEMEngine
        assert KINDS["nn"].engine is FactorizedNNEngine
        assert "factorized" not in {
            field.name for field in dataclasses.fields(AccessPath)
        }
        assert len(ACCESS) == 3

    def test_the_dense_engines_are_only_tracer_names(self):
        naming = {
            module
            for module, tree in _modules()
            if _identifiers(tree) & {"DenseEMEngine", "DenseNNEngine"}
        }
        assert naming == {"gmm/engines.py", "nn/engines.py"}

    def test_no_dense_or_factorized_batch_is_left(self):
        naming = {
            module
            for module, tree in _modules()
            if _identifiers(tree) & {"DenseBatch", "FactorizedBatch"}
        }
        assert naming == set()


def test_no_per_cell_name_is_left_under_src():
    offenders = {
        (module, name)
        for module, tree in _modules()
        for name in _identifiers(tree)
        if REMOVED.fullmatch(name)
    }
    assert offenders == set()
    assert not (SRC_ROOT / "gmm" / "algorithms.py").exists()
    assert not (SRC_ROOT / "nn" / "algorithms.py").exists()


def test_training_series_are_registered_in_one_module():
    registering = {
        module
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and re.fullmatch(r"repro_training_\w+", node.value)
    }
    assert registering == {"obs/training.py"}


def test_every_traced_target_still_resolves():
    """``benchmarks/e2e/trace.py`` wraps by ``vars(owner)[attr]``: a
    method moved to a base class, or a function to another module,
    would silently drop its span."""
    spec = importlib.util.spec_from_file_location(
        "e2e_trace", REPO_ROOT / "benchmarks" / "e2e" / "trace.py"
    )
    e2e_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(e2e_trace)
    targets = e2e_trace._targets()
    assert len(targets) > 40
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _, _ in targets
        if attr not in vars(owner)
    ]
    assert missing == []


class TestTheNNStepIsTiled:
    """A training step's ``(n, n_h)`` temporaries stay ``(tile, n_h)``:
    the network is only ever run on a batch from inside the one tile
    loop, and no activation selects (``np.where`` cost more than the
    ``exp`` it guarded)."""

    RUNS_THE_NETWORK = re.compile(r"forward\w*|backward\w*|predict")

    @staticmethod
    def _tree(module):
        return ast.parse((SRC_ROOT / module).read_text(encoding="utf-8"))

    def _network_calls_outside_a_loop(self, root):
        """Calls of ``something.forward*/backward*/predict`` under
        ``root`` that neither a ``for`` statement nor a ``lambda`` (the
        per-tile first-layer callbacks) encloses."""
        inside = {
            id(node)
            for loop in ast.walk(root)
            if isinstance(loop, (ast.For, ast.Lambda))
            for node in ast.walk(loop)
        }
        return [
            node.func.attr
            for node in ast.walk(root)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and self.RUNS_THE_NETWORK.fullmatch(node.func.attr)
            and id(node) not in inside
        ]

    def test_no_activation_selects(self):
        tree = self._tree("nn/activations.py")
        assert "where" not in _identifiers(tree)

    def test_engines_run_the_network_only_through_the_tile_loop(self):
        assert self._network_calls_outside_a_loop(
            self._tree("nn/engines.py")
        ) == []
        steps = {
            node.name: node
            for node in ast.walk(self._tree("nn/network.py"))
            if isinstance(node, ast.FunctionDef)
            and node.name in ("tiled_gradients", "dense_gradients")
        }
        assert set(steps) == {"tiled_gradients", "dense_gradients"}
        for step in steps.values():
            assert self._network_calls_outside_a_loop(step) == []
        assert "forward_from_first_preactivation" in _identifiers(
            steps["tiled_gradients"]
        )

    def test_the_engine_steps_through_the_tiled_sum(self):
        engines = self._tree("nn/engines.py")
        (step,) = [
            node for node in ast.walk(engines)
            if isinstance(node, ast.FunctionDef)
            and node.name == "batch_gradients"
        ]
        assert "tiled_gradients" in _identifiers(step)
        summed = {
            module
            for module, tree in _modules()
            if module.startswith("nn/")
            for node in ast.walk(tree)
            if isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Attribute)
            and node.target.attr in ("weights", "bias")
            and isinstance(node.op, ast.Add)
        }
        assert summed == {"nn/layers.py"}


class TestTheEMStepIsTiled:
    """An EM step's per-row temporaries stay ``(K, width, tile)``: the
    engine walks every batch through the one tile loop (``gmm/model.py``'s
    ``tiles``, beside the E-step every caller shares), ``run_em`` asks
    each batch for one step — the E-step and both M-step sums off one
    gather and centering per tile — every tile's work for all ``K``
    components is stacked (no per-component Python loop over the
    batch), and no contraction re-searches its path per call."""

    #: each engine method (in its own ``__dict__``, where the e2e tracer
    #: wraps the last three) and the one ``gmm/model.py`` walk it reads
    STEPS = {
        "step_batch": "em_step",
        "estep_batch": "posteriors",
        "mu_accumulate_batch": "mu_sums",
        "sigma_accumulate_batch": "sigma_sums",
    }
    MODULES = (
        "gmm/model.py", "gmm/engines.py", "linalg/outer.py",
        "linalg/quadform.py", "linalg/design.py",
    )

    @staticmethod
    def _tree(module):
        return ast.parse((SRC_ROOT / module).read_text(encoding="utf-8"))

    def _functions(self):
        """``{(module, qualified name): node}``, methods as
        ``Class.method``."""
        found = {}
        for module in self.MODULES:
            for top in self._tree(module).body:
                if isinstance(top, ast.FunctionDef):
                    found[module, top.name] = top
                elif isinstance(top, ast.ClassDef):
                    for item in top.body:
                        if isinstance(item, ast.FunctionDef):
                            found[module, f"{top.name}.{item.name}"] = item
        return found

    def test_no_loop_over_the_components(self):
        loops = [
            where
            for where, function in self._functions().items()
            if where[0].startswith("gmm/")
            for node in ast.walk(function)
            if isinstance(node, ast.For)
            and isinstance(node.iter, ast.Call)
            and getattr(node.iter.func, "id", "") == "range"
            and {"k", "n_components"} & _identifiers(node.iter)
        ]
        # K Cholesky factorizations of (d, d) parameters: no data row
        assert loops == [("gmm/model.py", "ComponentPrecisions.__init__")]

    def test_run_em_asks_each_batch_for_one_step(self):
        run_em = next(
            node for node in ast.walk(self._tree("gmm/base.py"))
            if isinstance(node, ast.FunctionDef) and node.name == "run_em"
        )
        walks = [
            node for node in ast.walk(run_em)
            if isinstance(node, ast.For)
            and "engine.batches" in ast.unparse(node.iter)
        ]
        assert len(walks) == 2      # the walk and the guarded re-walk
        for walk in walks:
            calls = [
                ast.unparse(node.func)
                for statement in walk.body
                for node in ast.walk(statement)
                if isinstance(node, ast.Call)
                and ast.unparse(node.func).startswith("engine.")
            ]
            assert calls == ["engine.step_batch"]

    def test_one_strided_tile_loop(self):
        strided = [
            where
            for where, function in self._functions().items()
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", "") == "range"
            and len(node.args) == 3
        ]
        assert strided == [("gmm/model.py", "tiles")]

    def test_the_tile_walks(self):
        functions = self._functions()
        tiled = {
            where for where, function in functions.items()
            if any(
                isinstance(node, ast.For) and "tiles" in _identifiers(node.iter)
                for node in ast.walk(function)
            )
        }
        # the E-step's walk, and each dimension's over a stored γ
        assert tiled == {
            ("gmm/model.py", "_log_density_tiles"),
            ("linalg/outer.py", "add_dimension_walks"),
        }

        def readers(name):
            return {
                where[1] for where, function in functions.items()
                if name in _identifiers(function) - {where[1]}
            }

        assert readers("_log_density_tiles") == {
            "posteriors", "component_log_densities", "em_sums",
        }
        # the step's walk, and the walks over a given γ (Σγx alone, or
        # with Sum_Σ about a centre; ridge reads it too)
        assert readers("add_dimension_walks") == {"em_sums", "moment_sums"}
        assert readers("moment_sums") == {"mu_sums", "sigma_sums"}
        # the step's M-step sums read the E-step's tile, in its loop
        (loop,) = [
            node for node in ast.walk(functions["gmm/model.py", "em_sums"])
            if isinstance(node, ast.For)
            and "_log_density_tiles" in _identifiers(node.iter)
        ]
        assert "add_moment_tile" in _identifiers(loop)
        assert readers("add_moment_tile") == {
            "em_sums", "add_dimension_walks",
        }
        # the training step is that walk, finished
        step = _identifiers(functions["gmm/model.py", "em_step"])
        assert {"em_sums", "finish_sum", "finish_outer"} <= step
        assert "_log_density_tiles" not in step
        assert readers("em_sums") == {"em_step"}
        walks = set(self.STEPS.values())
        for step, walk in self.STEPS.items():
            method = functions["gmm/engines.py", f"FactorizedEMEngine.{step}"]
            assert _identifiers(method) & walks == {walk}

    def test_no_einsum_path_search_on_a_training_path(self):
        searched = [
            module
            for module, tree in _modules()
            if module.startswith("linalg/")
            or module in ("gmm/engines.py", "gmm/model.py")
            for node in ast.walk(tree)
            if isinstance(node, ast.keyword) and node.arg == "optimize"
        ]
        assert searched == []

    def test_one_tile_size(self):
        assigned = [
            module
            for module, tree in _modules()
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", "") == "TILE_BYTES" for t in node.targets)
        ]
        assert assigned == ["linalg/blocks.py"]
        for module in ("nn/network.py", "gmm/model.py"):
            imported = [
                node.module
                for node in ast.walk(self._tree(module))
                if isinstance(node, ast.ImportFrom)
                and any(alias.name == "TILE_BYTES" for alias in node.names)
            ]
            assert imported == ["repro.linalg.blocks"]


class TestOneEMPassPerIteration:
    """``gmm/base.run_em`` walks the join once per iteration (the
    ``COUNT_TABLE["gmm", "train"]`` the cost model charges): one walk of
    ``engine.batches(iteration)`` in the iteration loop, one more only
    under the cancellation guard, and no ``γ`` kept past its batch."""

    @staticmethod
    def _iteration_loop():
        tree = ast.parse((SRC_ROOT / "gmm" / "base.py").read_text(
            encoding="utf-8"
        ))
        run_em = next(
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "run_em"
        )
        loops = [
            node for node in run_em.body
            if isinstance(node, ast.For)
            and getattr(node.target, "id", "") == "iteration"
        ]
        assert len(loops) == 1
        return loops[0]

    @staticmethod
    def _walks(root):
        return [
            node for node in ast.walk(root)
            if isinstance(node, ast.For)
            and any(
                isinstance(call, ast.Call)
                and ast.unparse(call.func) == "engine.batches"
                for call in ast.walk(node.iter)
            )
        ]

    def test_one_walk_plus_the_guarded_rewalk(self):
        loop = self._iteration_loop()
        walks = self._walks(loop)
        assert len(walks) == 2
        top = [stmt for stmt in loop.body if stmt in walks]
        assert len(top) == 1
        guards = [
            stmt for stmt in loop.body
            if isinstance(stmt, ast.If) and self._walks(stmt)
        ]
        assert len(guards) == 1
        # the walk's M-step is m_step, whose None is the cancellation
        # guard; the re-walk's sums go through m_step again
        (solved,) = [
            stmt.targets[0].id for stmt in loop.body
            if isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Call)
            and ast.unparse(stmt.value.func) == "m_step"
        ]
        assert ast.unparse(guards[0].test) == f"{solved} is None"
        assert "m_step" in _identifiers(guards[0])
        assert "CANCELLATION_LIMIT" not in _identifiers(loop)
        m_step = next(
            node for node in ast.walk(ast.parse(
                (SRC_ROOT / "gmm" / "base.py").read_text(encoding="utf-8")
            ))
            if isinstance(node, ast.FunctionDef) and node.name == "m_step"
        )
        assert "CANCELLATION_LIMIT" in _identifiers(m_step)
        for walk in walks:
            calls = [
                call for call in ast.walk(walk.iter)
                if isinstance(call, ast.Call)
                and ast.unparse(call.func) == "engine.batches"
            ]
            assert [ast.unparse(call.args[0]) for call in calls] == [
                "iteration"
            ]

    def test_no_gamma_outlives_its_batch(self):
        loop = self._iteration_loop()
        displays = [
            node for node in ast.walk(loop)
            if isinstance(node, (ast.List, ast.ListComp))
        ]
        assert displays == []
        kept = [
            ast.unparse(node)
            for node in ast.walk(loop)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("append", "extend")
            and "gamma" in _identifiers(node)
        ]
        assert kept == []
        assert "gammas" not in _identifiers(loop)


class TestTheDatabaseHoldsOneJoinIndex:
    """``storage/catalog.Database`` keeps the index of the join it last
    trained on in one slot: the only join-index state it assigns is that
    slot (and its lock), the slot only ever takes ``None`` or one index,
    and nothing outside the catalog writes it."""

    @staticmethod
    def _database():
        tree = ast.parse((SRC_ROOT / "storage" / "catalog.py").read_text(
            encoding="utf-8"
        ))
        return next(
            node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "Database"
        )

    @staticmethod
    def _stores(root):
        """``(attribute, value)`` of every ``self.<attr> = value`` and
        every subscript or augmented store into a ``self`` attribute."""
        for node in ast.walk(root):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                else []
            )
            for target in targets:
                for part in ast.walk(target):
                    if (
                        isinstance(part, ast.Attribute)
                        and isinstance(part.value, ast.Name)
                        and part.value.id == "self"
                    ):
                        yield part.attr, target, node.value

    def test_one_slot(self):
        stores = [
            (attr, target, value)
            for attr, target, value in self._stores(self._database())
            if "index" in attr
        ]
        assert {attr for attr, _, _ in stores} == {
            "_join_index", "_join_index_lock",
        }
        for attr, target, value in stores:
            if attr != "_join_index":
                continue
            assert isinstance(target, ast.Attribute)    # no slot[...] =
            assert (
                isinstance(value, ast.Constant) and value.value is None
            ) or isinstance(value, ast.Name), ast.unparse(value)

    def test_nothing_else_writes_the_slot(self):
        writers = set()
        for module, tree in _modules():
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "_join_index"
                    and isinstance(node.ctx, ast.Store)
                ):
                    writers.add(module)
        assert writers == {"storage/catalog.py"}


class TestOneModelSurface:
    """The options no workload set are gone: the paper trains with one
    loss (half-MSE, Section VI-A3) from one seeded start (k-means++,
    Section V-B), over the activations the Section VI-A2 ablation and
    the exactness suites read; ``linear/`` fits ridge only, the K = 1
    statistics ``maintain`` folds."""

    def test_one_loss(self):
        tree = ast.parse(
            (SRC_ROOT / "nn" / "losses.py").read_text(encoding="utf-8")
        )
        classes = [
            node.name for node in tree.body if isinstance(node, ast.ClassDef)
        ]
        functions = [
            node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
        ]
        assert (classes, functions) == (["HalfMSE"], [])

    def test_no_loss_or_seeding_option(self):
        from repro.gmm.base import EMConfig
        from repro.nn.base import NNConfig

        assert "loss" not in {f.name for f in dataclasses.fields(NNConfig)}
        assert "init_method" not in {
            f.name for f in dataclasses.fields(EMConfig)
        }

    def test_four_activations(self):
        from repro.nn.activations import available_activations

        assert available_activations() == [
            "identity", "relu", "sigmoid", "tanh",
        ]

    def test_ridge_is_the_one_linear_fit(self):
        import repro.linear
        import repro.linear.models

        fits = {
            name
            for module in (repro.linear, repro.linear.models)
            for name in vars(module)
            if name.startswith("fit")
        }
        assert fits == {"fit_ridge"}
