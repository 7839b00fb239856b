"""Degenerate-graph regressions: empty, single-vertex, self-loops-only.

The DiGraph engine used to raise ``SchedulingError: no partitions to
dispatch`` on edge-less graphs because the dispatcher refused an empty
group list; these tests pin the fixed behavior end to end — through
path decomposition, group building, every engine, and the full
``verify_graph`` battery.
"""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.core.dispatch import _build_groups
from repro.core.engine import DiGraphConfig, DiGraphEngine
from repro.core.partitioning import decompose_into_paths
from repro.graph.builder import from_edges
from repro.graph.digraph import DiGraphCSR
from repro.verify.harness import verify_graph


def empty_graph():
    return DiGraphCSR(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))


def single_vertex():
    return from_edges([], num_vertices=1)


def self_loops_only(n=4):
    return from_edges([(v, v) for v in range(n)], num_vertices=n)


DEGENERATE = {
    "empty": empty_graph,
    "single-vertex": single_vertex,
    "self-loops-only": self_loops_only,
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_decomposition_handles_degenerate(name):
    graph = DEGENERATE[name]()
    path_set = decompose_into_paths(graph)
    # Every edge (self-loops included) must still be covered exactly once.
    covered = sorted(path_set.layout.edge_ids.tolist())
    assert covered == list(range(graph.num_edges))


def test_build_groups_accepts_zero_partitions():
    graph = empty_graph()
    path_set = decompose_into_paths(graph)
    assert not path_set.num_paths
    assert _build_groups(0, set()) == []


@pytest.mark.parametrize("name", sorted(DEGENERATE))
@pytest.mark.parametrize("algo", ["pagerank", "wcc", "kcore"])
def test_digraph_engine_handles_degenerate(name, algo):
    graph = DEGENERATE[name]()
    engine = DiGraphEngine(config=DiGraphConfig(verify_invariants=True))
    result = engine.run(graph, make_program(algo, graph))
    assert result.converged
    assert result.states.shape == (graph.num_vertices,)
    assert np.all(np.isfinite(result.states) | np.isinf(result.states))


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_verify_battery_passes_on_degenerate(name):
    graph = DEGENERATE[name]()
    report = verify_graph(graph, graph_name=name, skip_metamorphic=True)
    assert report.passed, report.summary()


def test_source_algorithms_skipped_on_empty_graph():
    # sssp/bfs/ppr/reachability need a source vertex; on the empty graph
    # the harness records a passing "skipped" check instead of crashing.
    report = verify_graph(
        empty_graph(),
        graph_name="empty",
        algorithms=("sssp", "bfs"),
        skip_metamorphic=True,
    )
    assert report.passed, report.summary()
    skipped = [r for r in report.results if "skipped" in r.detail]
    assert len(skipped) == 2


def test_self_loop_messages_stay_local():
    # A self-loop's producer and consumer are the same vertex, so the
    # conservation ledgers must balance with zero cross-GPU traffic.
    graph = self_loops_only(6)
    engine = DiGraphEngine(config=DiGraphConfig(verify_invariants=True))
    result = engine.run(graph, make_program("wcc", graph))
    assert result.converged
    assert result.stats.replica_pair_bytes == {}
