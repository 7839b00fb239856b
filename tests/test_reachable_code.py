"""Every definition in ``src/`` has a caller outside the tests.

The guard walks ``src/`` with :mod:`ast` and collects each top-level
function, class and constant (a non-dunder name a module-level
assignment binds) and each non-dunder method of a top-level class. A
definition is reached when code in ``src/``, ``benchmarks/`` or
``examples/`` names it outside its own body: a call, an attribute read,
an import, a string in ``__all__`` or ``getattr``. Names are matched
without their owner, so one ``run`` reached anywhere reaches every
``run``. A kernel or step registered by a decorator is reached through
its registry.

Code the tests use on purpose and no program path reaches is listed in
:data:`TEST_ONLY`, grouped by why it stays. Anything else a scan finds
unreached is dead: delete it, with its tests, or give it a caller.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: Test-only on purpose: ``module.py::name`` (paths under ``src/repro``,
#: methods as ``Class.method``), grouped by why each stays.
TEST_ONLY = {
    # A slow or independent formulation the tests hold the fast one to,
    # or an entry point of the checkers in repro.verify / model.validate.
    "reference oracle": (
        "core/scheduling.py::PathScheduler.order_paths",
        "core/scheduling.py::PathScheduler.priority",
        "core/scheduling.py::balance_paths_to_threads",
        "graph/traversal.py::connected_weakly",
        "graph/traversal.py::dfs_preorder",
        "graph/traversal.py::is_reachable",
        "graph/traversal.py::reachable_set",
        "model/state.py::StalenessView.as_array",
        "model/validate.py::assert_fixed_point",
        "verify/serve.py::verify_lane_equivalence",
        "verify/streaming.py::verify_stream",
    ),
    # Graphs the tests build their cases from.
    "test-graph fixture": (
        "graph/datasets.py::load_all",
        "graph/digraph.py::DiGraphCSR.reverse",
        "graph/generators.py::bowtie_graph",
        "graph/generators.py::complete_binary_out_tree",
        "graph/generators.py::directed_cycle",
        "graph/generators.py::directed_path",
        "graph/generators.py::power_law_directed",
        "graph/generators.py::random_dag",
        "graph/generators.py::rmat",
    ),
    # A read-only view of state the program keeps, for a test to assert.
    "inspection accessor": (
        "bench/sweep.py::canonical_bytes",
        "core/dependency.py::DependencyDAG.layer_of_path",
        "core/dependency.py::DependencyDAG.scc_successors",
        "core/replicas.py::ReplicaTable.has_proxy",
        "core/replicas.py::ReplicaTable.num_proxied",
        "core/replicas.py::ReplicaTable.replica_count",
        "core/replicas.py::ReplicaTable.writer_partitions",
        "faults/checkpoint.py::CheckpointRecord.hidden_fraction",
        "faults/plan.py::FaultPlan.num_events",
        "gpu/memory.py::BoundedMemory.free_bytes",
        "gpu/memory.py::BoundedMemory.region_size",
        "gpu/memory.py::BoundedMemory.used_bytes",
        "graph/builder.py::GraphBuilder.num_staged_edges",
        "graph/metrics.py::degree_skew",
        "graph/metrics.py::effective_diameter",
        "graph/scc.py::Condensation.giant_component",
    ),
    # Resets process-wide caches between tests.
    "test hygiene": (
        "bench/runner.py::clear_cache",
        "serve/runner.py::clear_context_cache",
        "storage/store.py::ShardStore.drop_cache",
    ),
}


def _decorator_registers(node: ast.AST) -> bool:
    """Whether one of ``node``'s decorators is a registry's
    (``@register_kernel(...)``, ``@_register(...)``)."""
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", ""
        )
        if "register" in name:
            return True
    return False


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, str, ast.AST]]:
    """(qualified name, bare name, node) of each definition the guard
    holds to a caller."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign)
            else []
        )
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield target.id, target.id, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member.name, member


def _references(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(name, line) of every name the module refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # ``__all__`` entries, ``getattr(obj, "name")`` and the like.
            if node.value.isidentifier():
                yield node.value, node.lineno


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unreached(src: Path = SRC, caller_dirs=CALLER_DIRS) -> List[str]:
    """``module.py::name`` of every definition under ``src`` that no
    code in ``caller_dirs`` refers to outside its own body."""
    # name -> [(file, line)] of every reference in the caller trees.
    refs: Dict[str, List[Tuple[Path, int]]] = {}
    for directory in caller_dirs:
        for path in sorted(directory.rglob("*.py")):
            for name, line in _references(_parse(path)):
                refs.setdefault(name, []).append((path, line))
    found = []
    package = src / "repro"
    for path in sorted(package.rglob("*.py")):
        for qualname, name, node in _definitions(_parse(path)):
            if _decorator_registers(node):
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if not any(
                where != path or line not in body
                for where, line in refs.get(name, ())
            ):
                found.append(f"{path.relative_to(package).as_posix()}::{qualname}")
    return found


def test_every_definition_has_a_caller_outside_the_tests():
    allowed: Set[str] = {name for names in TEST_ONLY.values() for name in names}
    dead = sorted(set(unreached()) - allowed)
    assert not dead, (
        "reached only by tests (delete it, or list it in TEST_ONLY with "
        "its reason):\n  " + "\n  ".join(dead)
    )


def test_every_allowlisted_name_is_defined_and_unreached():
    """An allowlist entry whose code was deleted, or that gained a
    caller, is stale."""
    allowed = [name for names in TEST_ONLY.values() for name in names]
    assert len(allowed) == len(set(allowed))
    stale = sorted(set(allowed) - set(unreached()))
    assert not stale, "TEST_ONLY entries with a caller or no definition: " + ", ".join(stale)


# ----------------------------------------------------------------------
# the scan itself, on a made-up tree
# ----------------------------------------------------------------------
def _tree(tmp_path, src_files, bench_files=None):
    """``src/repro/<name>`` for each of ``src_files`` and
    ``benchmarks/<name>`` for each of ``bench_files``; returns the
    ``unreached`` of the tree."""
    for directory, files in (
        (tmp_path / "src" / "repro", src_files),
        (tmp_path / "benchmarks", bench_files or {}),
    ):
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (directory / name).write_text(text)
    src = tmp_path / "src"
    return unreached(src, (src, tmp_path / "benchmarks"))


def test_a_definition_nothing_names_is_reported(tmp_path):
    found = _tree(
        tmp_path,
        {"a.py": "def used():\n    pass\n\nused()\n\n"
                 "def orphan():\n    pass\n"},
    )
    assert found == ["a.py::orphan"]


def test_a_constant_nothing_names_is_reported(tmp_path):
    found = _tree(
        tmp_path,
        {
            "a.py": "__all__ = ['USED']\nUSED = 1\nPRESET: int = 2\n"
                    "ORPHAN = PRESET\n",
            "b.py": "from repro.a import USED\n",
        },
    )
    assert found == ["a.py::ORPHAN"]


def test_a_call_from_its_own_body_does_not_reach_it(tmp_path):
    found = _tree(
        tmp_path, {"a.py": "def walk(n):\n    return walk(n - 1)\n"}
    )
    assert found == ["a.py::walk"]


def test_an_import_or_call_in_another_module_reaches_it(tmp_path):
    found = _tree(
        tmp_path,
        {
            "a.py": "def helper():\n    pass\n\nclass Shape:\n    pass\n",
            "b.py": "from repro.a import helper\nimport repro.a\n\n"
                    "print(repro.a.Shape)\n",
        },
    )
    assert found == []


def test_a_caller_under_benchmarks_reaches_it(tmp_path):
    src = {"a.py": "def timed():\n    pass\n"}
    assert _tree(tmp_path, src) == ["a.py::timed"]
    bench = {"bench.py": "from repro.a import timed\n"}
    assert _tree(tmp_path, src, bench) == []


def test_a_registry_decorator_reaches_the_definition(tmp_path):
    found = _tree(
        tmp_path,
        {
            "a.py": "@register_kernel('scalar')\ndef scalar_kernel():\n"
                    "    pass\n\n@_register\ndef step():\n    pass\n\n"
                    "@staticmethod\ndef plain():\n    pass\n",
        },
    )
    assert found == ["a.py::plain"]


def test_methods_are_held_to_a_caller_but_dunders_are_not(tmp_path):
    found = _tree(
        tmp_path,
        {
            "a.py": "class Box:\n    def __len__(self):\n        return 0\n\n"
                    "    def open(self):\n        pass\n\n"
                    "    def close(self):\n        pass\n\n"
                    "Box().open()\n",
        },
    )
    assert found == ["a.py::Box.close"]


def test_a_string_naming_it_reaches_it(tmp_path):
    """``__all__`` entries and ``getattr(obj, "name")``."""
    found = _tree(
        tmp_path,
        {
            "a.py": "__all__ = ['exported']\n\ndef exported():\n    pass\n\n"
                    "class C:\n    def looked_up(self):\n        pass\n\n"
                    "getattr(C(), 'looked_up')\n",
        },
    )
    assert found == []


def test_nested_functions_are_not_held_to_a_caller(tmp_path):
    found = _tree(
        tmp_path,
        {"a.py": "def outer():\n    def inner():\n        pass\n"
                 "    return 1\n\nouter()\n"},
    )
    assert found == []


def test_names_are_matched_without_their_owner(tmp_path):
    """One ``run`` reached anywhere reaches every ``run``: the scan
    errs towards keeping code, never towards deleting it."""
    found = _tree(
        tmp_path,
        {
            "a.py": "class A:\n    def run(self):\n        pass\n\n"
                    "class B:\n    def run(self):\n        pass\n",
            "b.py": "from repro.a import A, B\n\nA().run()\n",
        },
    )
    assert found == []
