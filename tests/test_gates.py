"""The pinned files, and every must-bite control as one row of a table.

Every pinned file loads through :func:`tests.pinned.load_pinned`. A
:class:`Mutation` row shows a pin can fail: it patches a change into
every binding its cases look the name up through (a source replacement,
which must still apply, or a replacement callable), then its ``moves``
cases must differ from their pins and its ``holds`` cases equal theirs.
A :class:`SweepGate` row runs a committed CI sweep through the CLI: it
must pass its committed baseline, and fail it with a slowdown injected.
A new gate is a new row of :data:`GATES`.
"""

import dataclasses
import importlib
import inspect
import json
import re
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import engine, scheduling, storage
from repro.faults import chaos
from repro.gpu import machine
from repro.kernels import linear, segment
from repro.serve.server import QueryServer
from tests.core import test_execution_golden as execution_golden
from tests.core import test_preprocess_golden as preprocess_golden
from tests.faults import test_chaos_golden as chaos_golden
from tests.pinned import dump_pinned, load_pinned
from tests.serve import test_server_golden as server_golden
from tests.serve import test_solve_golden as solve_golden

TESTS = Path(__file__).resolve().parent
PINNED_FILES = sorted(
    [*TESTS.rglob("*fingerprints.json"), TESTS / "verify/golden_digests.json"]
)


@dataclasses.dataclass(frozen=True)
class Mutation:
    name: str
    #: The golden module whose ``GOLDEN_PATH`` pins the cases.
    pinned: object
    #: Every ``(owner, attribute)`` the name is looked up through; a source
    #: replacement edits the first one's function.
    bindings: tuple
    #: ``(old, new)`` source text, or the replacement itself.
    change: object
    #: A case's key -> its fingerprint, computed under the change.
    run: object
    moves: tuple
    holds: tuple = ()

    def check(self, monkeypatch, tmp_path):
        replacement = self.change
        if not callable(replacement):
            function = getattr(*self.bindings[0])
            old, new = replacement
            source = textwrap.dedent(inspect.getsource(function))
            assert old in source, f"{self.name}: the change does not apply"
            namespace = dict(function.__globals__)
            exec(source.replace(old, new), namespace)
            replacement = namespace[function.__name__]
        for owner, attribute in self.bindings:
            monkeypatch.setattr(owner, attribute, replacement)
        pinned = json.loads(self.pinned.GOLDEN_PATH.read_text())
        for key in self.moves:
            moved = self.run(key) != pinned[key]
            assert moved, f"{self.name}: {key} does not move"
        for key in self.holds:
            assert self.run(key) == pinned[key], f"{self.name}: {key} moved"


@dataclasses.dataclass(frozen=True)
class SweepGate:
    config: str
    baseline: str
    slowdown: dict

    @property
    def name(self):
        return f"sweep gate: {self.config}"

    def check(self, monkeypatch, tmp_path):
        config = TESTS.parent / "benchmarks" / self.config
        gate = ["--output", "", "--tolerance", "0.15", "--gate",
                str(config.with_name(self.baseline))]
        assert main(["sweep", "--config", str(config), *gate]) == 0, (
            f"{self.name}: the committed config fails its baseline"
        )
        slowed = tmp_path / self.config
        raw = json.loads(config.read_text())
        raw["inject_slowdown"] = self.slowdown
        slowed.write_text(json.dumps(raw))
        assert main(["sweep", "--config", str(slowed), *gate]) == 1, (
            f"{self.name}: the injected slowdown passes the gate"
        )


def _case(module, key):
    return next(case for case in module.CASES if module._key(*case) == key)


def _execution(key):
    cell = _case(execution_golden, key)
    return execution_golden.fingerprint(execution_golden._run(*cell))


_thread_order = scheduling.PathScheduler.thread_order


def _reversed_ties(self, path_ids, active_counts, path_work):
    """Equal-work paths in reverse priority order."""
    ordered = _thread_order(self, path_ids, active_counts, path_work)[::-1]
    return ordered[np.argsort(-path_work[ordered], kind="stable")]


_fold_ranks = set()


def _reversed_fold(values, seg_offsets):
    """Each segment summed last value first."""
    _fold_ranks.add(values.ndim)
    counts = np.diff(seg_offsets)
    first = np.repeat(seg_offsets[:-1], counts)
    last = np.repeat(seg_offsets[1:] - 1, counts)
    flip = first + last - np.arange(counts.sum())
    return segment.segment_sum_ordered(values[..., flip], seg_offsets)


def _folded_solve(key):
    """One-lane solves fold on the 1-D path, the others on (k, n)."""
    case = _case(solve_golden, key)
    _fold_ranks.clear()
    solved = solve_golden.fingerprint(*case)
    assert _fold_ranks == {1 if case[2] == 1 else 2}, f"{key}: {_fold_ranks}"
    return solved


def _flipped_chaos(key):
    """A vacuous crash row, which the change must flip to PASS."""
    with tempfile.TemporaryDirectory() as run_dir:
        rows = chaos_golden.run_case(key, chaos_golden.build_graph(), run_dir)
    assert [row["passed"] for row in rows] == [True], f"{key} still fails"
    return rows


SHED_OLDEST = Mutation(
    "serve: the oldest query is shed", server_golden,
    ((QueryServer, "serve"),),
    (
        "end_queue(backlog, tied, newest=True).pop()",
        "end_queue(backlog, tied).popleft()",
    ),
    lambda key: server_golden.run_case(server_golden.build_context(), key),
    moves=("shed",), holds=("default",),
)
GATES = (
    Mutation(
        "execution: reversed equal-work ties", execution_golden,
        ((scheduling.PathScheduler, "thread_order"),), _reversed_ties,
        _execution, moves=("webbase/pagerank/digraph/gpus4",),
    ),
    Mutation(
        "pricing: a split item's atomics on its first piece", execution_golden,
        ((machine, "balanced_cycles"),),
        (
            "piece_atomics[last] = atomics",
            "piece_atomics[last - full] = atomics",
        ),
        _execution, moves=("webbase/pagerank/digraph/gpus4",),
    ),
    Mutation(
        "lane solver: reversed fold", solve_golden,
        ((linear, "segment_sum_ordered"),), _reversed_fold, _folded_solve,
        moves=tuple(
            solve_golden._key(graph, "ppr", lanes, False)
            for graph in solve_golden.GRAPHS
            for lanes in solve_golden.LANES
        ),
    ),
    Mutation(
        "chaos: a completed crash leg counts as crashed", chaos_golden,
        ((chaos, "_run_row"),),
        (
            "        else:\n            return row.fail(",
            "        if False:\n            return row.fail(",
        ),
        _flipped_chaos, moves=chaos_golden.VACUOUS_CRASH_CASES,
    ),
    SHED_OLDEST,
    Mutation(
        "preprocess: partitions without the successor-path key",
        preprocess_golden,
        (
            (storage, "build_partitions"),
            (engine, "build_partitions"),
            (preprocess_golden, "build_partitions"),
        ),
        (
            "(cold, scc, -successor_path_counts(dag)[scc], layer)",
            "(cold, scc, layer)",
        ),
        lambda key: preprocess_golden.fingerprint(
            *_case(preprocess_golden, key)
        ),
        moves=tuple(
            preprocess_golden._key(*case)
            for case in preprocess_golden.CASES
            if case[0] == "dblp"
        ),
    ),
    SweepGate("sweep_ci.json", "baseline_ci.json", {"*": 3.0}),
    SweepGate("serve_ci.json", "baseline_serve_ci.json", {"serve/*": 3.0}),
    SweepGate(
        "overload_ci.json", "baseline_overload_ci.json", {"serve/*": 3.0}
    ),
)


@pytest.mark.parametrize("row", GATES, ids=lambda row: row.name)
@pytest.mark.usefixtures("isolated_caches")
def test_gate_bites(row, monkeypatch, tmp_path):
    row.check(monkeypatch, tmp_path)


@pytest.mark.parametrize(
    "fields, failure",
    [
        (dict(change=("no such line", "x")), "does not apply"),
        (dict(moves=("default",), holds=()), "default does not move"),
        (dict(moves=(), holds=("shed",)), "shed moved"),
    ],
)
def test_a_failing_row_leaves_its_binding_as_it_was(
    fields, failure, tmp_path
):
    original = QueryServer.serve
    row = dataclasses.replace(SHED_OLDEST, **fields)
    with pytest.MonkeyPatch.context() as monkeypatch:
        with pytest.raises(AssertionError, match=failure):
            row.check(monkeypatch, tmp_path)
    assert QueryServer.serve is original


def test_every_pinned_file_loads_through_the_loader():
    loaded = []
    for script in set(TESTS.rglob("test_*.py")) - {Path(__file__).resolve()}:
        if "load_pinned(GOLDEN_PATH" in re.sub(r"\s", "", script.read_text()):
            name = script.relative_to(TESTS.parent).with_suffix("").parts
            loaded.append(importlib.import_module(".".join(name)).GOLDEN_PATH)
    assert sorted(loaded) == PINNED_FILES


@pytest.mark.parametrize("path", PINNED_FILES, ids=lambda path: path.name)
def test_the_writer_reproduces_the_committed_bytes(path):
    text = path.read_text()
    assert dump_pinned(json.loads(text), text) == text


def test_regen_keeps_the_committed_format(tmp_path, monkeypatch):
    path = tmp_path / "pins.json"
    monkeypatch.delenv("REPRO_REGEN_GOLDEN", raising=False)
    command = "PYTHONPATH=src python -m pytest tests/test_gates.py"
    with pytest.raises(pytest.fail.Exception, match=re.escape(command)):
        load_pinned(path, lambda: {})
    committed = {"b": {"y": 1, "x": 2}, "a": [{"q": 1, "p": 2}]}
    path.write_text(json.dumps(committed, indent=2) + "\n")
    monkeypatch.setenv("REPRO_REGEN_GOLDEN", "1")
    computed = {"c": (3,), "a": [{"p": 2, "q": 1}], "b": {"x": 2, "y": 1}}
    regenerated = {**committed, "c": [3]}
    assert load_pinned(path, lambda: computed) == regenerated
    assert path.read_text() == json.dumps(regenerated, indent=2) + "\n"
