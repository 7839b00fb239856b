"""``bfs_levels`` against the queue-order BFS it replaced.

``bfs_levels`` expands a whole frontier per level. The queue BFS below —
one vertex at a time, successors in CSR order — is kept as the oracle:
hop levels are unique, so the two must agree on every vertex of every
graph, and sampled average distance (which calibrates the generators'
layer counts) rests on that.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph.builder import from_edges
from repro.graph.traversal import UNREACHED, bfs_levels


def queue_bfs_levels(graph, source):
    levels = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
    levels[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        next_level = levels[v] + 1
        for u in graph.successors(v):
            if levels[u] == UNREACHED:
                levels[u] = next_level
                queue.append(int(u))
    return levels


@st.composite
def graphs_and_sources(draw):
    """Self-loops, parallel edges, isolated vertices, unreachable parts:
    edges among the first ``reach`` vertices only, so the rest (and any
    source among them) see little or nothing."""
    n = draw(st.integers(min_value=1, max_value=40))
    reach = draw(st.integers(min_value=1, max_value=n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, reach - 1), st.integers(0, reach - 1)),
            max_size=120,
        )
    )
    return from_edges(edges, num_vertices=n), draw(st.integers(0, n - 1))


@settings(max_examples=300, deadline=None)
@given(case=graphs_and_sources())
def test_frontier_bfs_matches_the_queue(case):
    graph, source = case
    levels = bfs_levels(graph, source)
    assert levels.dtype == np.int64
    assert np.array_equal(levels, queue_bfs_levels(graph, source))


@pytest.mark.parametrize("source", [-1, -5, 4, 100])
def test_out_of_range_source_raises_before_writing(source):
    graph = from_edges([(0, 1), (1, 2), (2, 3)], num_vertices=4)
    with pytest.raises(GraphError):
        bfs_levels(graph, source)


def test_long_chain_and_wide_fan():
    chain = from_edges([(i, i + 1) for i in range(500)], num_vertices=501)
    assert bfs_levels(chain, 0).tolist() == list(range(501))
    fan = from_edges(
        [(0, i) for i in range(1, 300)] + [(i, 300) for i in range(1, 300)],
        num_vertices=302,
    )
    assert np.array_equal(bfs_levels(fan, 0), queue_bfs_levels(fan, 0))
    assert bfs_levels(fan, 0)[301] == UNREACHED
