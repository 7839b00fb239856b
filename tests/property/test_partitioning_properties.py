"""Property-based tests (hypothesis) for path decomposition invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.dependency import build_dependency_dag
from repro.core.engine import DiGraphConfig, DiGraphEngine
from repro.core.partitioning import decompose_into_paths
from repro.gpu.config import SCALED_MACHINE
from repro.graph.builder import from_edges
from repro.graph.traversal import topological_order
from repro.verify.structural import verify_preprocessed


@st.composite
def small_digraphs(draw):
    """Arbitrary directed graphs with 2-20 vertices, no self loops."""
    n = draw(st.integers(min_value=2, max_value=20))
    max_edges = min(n * (n - 1), 60)
    num_edges = draw(st.integers(min_value=1, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=num_edges,
            unique=True,
        )
    )
    return from_edges(edges, num_vertices=n)


@settings(max_examples=60, deadline=None)
@given(graph=small_digraphs(), d_max=st.integers(1, 20))
def test_paths_cover_edges_exactly_once(graph, d_max):
    ps = decompose_into_paths(graph, d_max=d_max)
    ps.validate()  # edge-disjoint + complete coverage + connectivity


@settings(max_examples=60, deadline=None)
@given(graph=small_digraphs())
def test_paths_are_connected_edge_sequences(graph):
    ps = decompose_into_paths(graph)
    for path_id, vertices in enumerate(ps.sequences):
        for i, eid in enumerate(ps.edges_of(path_id)):
            src, dst = graph.edge_endpoints(int(eid))
            assert src == vertices[i]
            assert dst == vertices[i + 1]


@settings(max_examples=40, deadline=None)
@given(graph=small_digraphs(), n_workers=st.integers(1, 4))
def test_worker_sharding_preserves_coverage(graph, n_workers):
    ps = decompose_into_paths(graph, n_workers=n_workers)
    ps.validate()


@settings(max_examples=40, deadline=None)
@given(graph=small_digraphs())
def test_dag_sketch_is_acyclic(graph):
    ps = decompose_into_paths(graph)
    dag = build_dependency_dag(ps)
    topological_order(dag.dag)  # raises if cyclic


@settings(max_examples=40, deadline=None)
@given(graph=small_digraphs())
def test_layers_are_topological(graph):
    ps = decompose_into_paths(graph)
    dag = build_dependency_dag(ps)
    for a, b, _ in dag.dag.edges():
        assert dag.layer_of_scc[b] > dag.layer_of_scc[a]


@settings(max_examples=40, deadline=None)
@given(graph=small_digraphs())
def test_merge_never_loses_edges(graph):
    merged = decompose_into_paths(graph, merge_short_paths=True)
    plain = decompose_into_paths(graph, merge_short_paths=False)
    assert merged.total_edges() == plain.total_edges() == graph.num_edges


@st.composite
def multigraphs(draw):
    """Directed multigraphs: self-loops, parallel edges, isolated
    vertices, and the vertex-less / edge-less graphs all included."""
    n = draw(st.integers(min_value=0, max_value=14))
    if n == 0:
        return from_edges([], num_vertices=0)
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=50,
        )
    )
    return from_edges(edges, num_vertices=n)


@settings(max_examples=80, deadline=None)
@given(
    graph=multigraphs(),
    n_workers=st.integers(1, 4),
    d_max=st.integers(1, 8),
    flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_multigraph_preprocessing_is_structurally_sound(
    graph, n_workers, d_max, flags
):
    """The independent from-first-principles checkers accept whatever the
    array-form stages produce, on inputs the dataset stand-ins never
    contain."""
    degree_greedy, scc_aware, merge = flags
    decompose_into_paths(
        graph,
        d_max=d_max,
        n_workers=n_workers,
        degree_greedy=degree_greedy,
        scc_aware=scc_aware,
        merge_short_paths=merge,
    ).validate()
    config = DiGraphConfig(
        d_max=d_max,
        n_workers=n_workers,
        degree_greedy=degree_greedy,
        merge_short_paths=merge,
    )
    pre = DiGraphEngine(SCALED_MACHINE, config).preprocess(graph)
    pre.path_set.validate()
    report = verify_preprocessed(pre)
    assert report.passed, report.failures
