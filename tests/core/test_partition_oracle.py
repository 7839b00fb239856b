"""Algorithm 1's walk and the head-to-tail merge against their full scans.

The walk keeps each vertex's unvisited out-edges as a list it pops from,
and the merge tests the junction and region rules once per extension
behind a per-head cursor. ``tests/core/partition_oracle.py`` keeps the
scans those replaced; every path — vertex sequence and edge ids, in
order — must come out the same, since path order is what every digest
downstream rests on. ``preprocess_fingerprints.json`` pins only the six
scale-0.5 stand-ins; this covers arbitrary multigraphs and hubs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partitioning import _merge_head_to_tail, decompose_into_paths
from repro.graph import datasets
from repro.graph.builder import from_edges
from tests.core.partition_oracle import scan_merge_head_to_tail, scan_walk
from tests.property.test_partitioning_properties import multigraphs


@st.composite
def hub_graphs(draw):
    """Multigraphs whose edges mostly touch three hubs: long successor
    lists that drain out of order, and many paths sharing a head."""
    n = draw(st.integers(min_value=1, max_value=30))
    endpoint = st.one_of(st.integers(0, min(2, n - 1)), st.integers(0, n - 1))
    edges = draw(st.lists(st.tuples(endpoint, endpoint), max_size=160))
    return from_edges(edges, num_vertices=n)


graphs = st.one_of(multigraphs(), hub_graphs())


def assert_matches_scans(graph, d_max, n_workers, greedy, scc_aware, merge):
    path_set = decompose_into_paths(
        graph,
        d_max=d_max,
        n_workers=n_workers,
        degree_greedy=greedy,
        scc_aware=scc_aware,
        merge_short_paths=merge,
    )
    vertex_paths, segments, region = scan_walk(
        graph, d_max, n_workers, greedy, scc_aware
    )
    if merge:
        vertex_paths, segments = scan_merge_head_to_tail(
            graph, vertex_paths, segments, region, max_edges=d_max
        )
    assert [list(p.vertices) for p in path_set] == vertex_paths
    assert [list(p.edge_ids) for p in path_set] == segments


@settings(max_examples=150, deadline=None)
@given(
    graph=graphs,
    d_max=st.integers(1, 8),
    n_workers=st.sampled_from((1, 4)),
    flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_decompositions_match_the_scans(graph, d_max, n_workers, flags):
    assert_matches_scans(graph, d_max, n_workers, *flags)


@settings(max_examples=100, deadline=None)
@given(
    graph=graphs,
    d_max=st.integers(1, 8),
    n_workers=st.sampled_from((1, 4)),
    flags=st.tuples(st.booleans(), st.booleans()),
)
def test_uncapped_merge_matches_the_scan(graph, d_max, n_workers, flags):
    vertex_paths, segments, region = scan_walk(graph, d_max, n_workers, *flags)
    expected = scan_merge_head_to_tail(
        graph, vertex_paths, segments, region, max_edges=None
    )
    snapshot = [list(vs) for vs in vertex_paths], [list(s) for s in segments]
    merged = _merge_head_to_tail(graph, vertex_paths, segments, region, None)
    assert merged == expected
    assert (vertex_paths, segments) == snapshot  # inputs are not mutated


def _complete(n):
    return [(a, b) for a in range(n) for b in range(n)]


def _star(leaves):
    return [(0, i) for i in range(1, leaves + 1)] + [
        (i, 0) for i in range(1, leaves + 1)
    ]


CASES = {
    "complete digraph with self-loops": (_complete(12), 12),
    "bidirectional star": (_star(80), 81),
    "parallel edges": ([(0, 1)] * 30 + [(1, 0)] * 29 + [(1, 2)] * 5, 3),
    "hub chain": (
        [(i, i + 1) for i in range(40)]
        + [(0, i) for i in range(2, 41)]
        + [(i, 0) for i in range(1, 41, 3)],
        41,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("n_workers", (1, 4))
@pytest.mark.parametrize("d_max", (1, 3, 16))
def test_edge_cases_match_the_scans(name, n_workers, d_max):
    edges, n = CASES[name]
    graph = from_edges(edges, num_vertices=n)
    for greedy in (True, False):
        for scc_aware in (True, False):
            for merge in (True, False):
                assert_matches_scans(
                    graph, d_max, n_workers, greedy, scc_aware, merge
                )


@pytest.mark.parametrize("n_workers", (1, 4))
def test_full_size_social_stand_in_matches_the_scans(n_workers):
    """Hubs with hundreds of out-edges, at the engine's defaults."""
    graph = datasets.load("twitter", scale=1.0)
    assert_matches_scans(graph, 16, n_workers, True, True, True)
