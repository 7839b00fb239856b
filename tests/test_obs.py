"""The span recorder (``repro.obs``) and the view over it.

Recording the three layers a view reads — a preprocess, the DiGraph runs
over it (one with a durable checkpoint store) and one 8-lane serve
batch — fires every span ``src/`` declares:
a span moved off its choke point, or one that nothing runs, fails here.
Every span a ``benchmarks/host_layers.py`` table names is declared.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import obs
from repro.algorithms import make_program
from repro.bench.runner import make_engine
from repro.faults.recovery import RecoveryPolicy
from repro.gpu.config import SCALED_MACHINE
from repro.graph import datasets
from repro.serve.context import ServingContext
from repro.serve.query import generate_trace, make_query_program
from repro.serve.solver import MultiSourceSolver

VIEW = Path(__file__).resolve().parent.parent / "benchmarks/host_layers.py"


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    graph = datasets.load("twitter", scale=0.3, weighted=True)
    durable = RecoveryPolicy(
        checkpoint_interval=2, durability="durable",
        run_dir=str(tmp_path_factory.mktemp("durable")),
    )
    with obs.record() as rec:
        pre = make_engine("digraph", SCALED_MACHINE).preprocess(graph)
        for name, recovery in (
            ("digraph", None), ("digraph-t", None), ("digraph", durable)
        ):
            make_engine(name, SCALED_MACHINE).run(
                graph, make_program("pagerank", graph), preprocessed=pre,
                recovery=recovery,
            )
        context = ServingContext(graph, SCALED_MACHINE)
        trace = generate_trace(
            graph.num_vertices, num_queries=8, seed=28, algorithms=("ppr",)
        )
        MultiSourceSolver(
            context, [make_query_program(q) for q in trace]
        ).solve()
    return rec


def test_every_declared_span_fires(recording):
    fired = {path[-1] for path in recording.calls}
    assert set(obs.DECLARED) - fired == set()


def test_every_span_the_view_names_is_declared():
    spec = importlib.util.spec_from_file_location("host_layers", VIEW)
    view = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(view)  # raises on a span src/ does not declare
    assert view.UNDECLARED == []


def test_a_span_is_charged_its_own_time_only(monkeypatch):
    monkeypatch.setattr(obs, "DECLARED", {})
    ticks = iter([0.0, 1.0, 3.0, 6.0])
    monkeypatch.setattr(
        obs, "time", SimpleNamespace(perf_counter=ticks.__next__)
    )
    inner = obs.Span("test.inner")
    outer = obs.Span("test.outer")
    with obs.record() as rec:
        with outer:  # 0 .. 6
            with inner:  # 1 .. 3
                pass
        inner.count(5)
    assert list(obs.DECLARED) == ["test.inner", "test.outer"]
    assert rec.seconds == {
        ("test.outer",): 4.0, ("test.outer", "test.inner"): 2.0
    }
    assert rec.calls == {
        ("test.outer",): 1, ("test.outer", "test.inner"): 1, ("test.inner",): 5
    }


def test_off_records_nothing_and_record_blocks_nest(monkeypatch):
    monkeypatch.setattr(obs, "DECLARED", {})

    @obs.span
    def traced(x):
        return x + 1

    assert traced(1) == 2  # off: a call through
    with obs.record() as outer:
        with obs.record() as inner:
            traced(1)
        traced(2)
    name = f"{__name__}.{traced.__qualname__}"
    assert list(obs.DECLARED) == [name]
    assert inner.calls == {(name,): 1} and outer.calls == {(name,): 1}
