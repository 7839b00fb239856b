"""``bfs_levels`` and the multi-source sweep against the queue-order BFS.

``multi_source_levels`` expands every source's frontier per level in one
sweep, and ``bfs_levels`` is its one-source case. The queue BFS below —
one vertex at a time, successors in CSR order — is kept as the oracle:
hop levels are unique, so the two must agree on every vertex of every
graph, and sampled average distance (which calibrates the generators'
layer counts) rests on that.
"""

from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph import metrics
from repro.graph.builder import from_edges
from repro.graph.traversal import UNREACHED, bfs_levels, multi_source_levels


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


@st.composite
def graphs_and_source_lists(draw):
    """As ``graphs_and_sources``, with up to 150 sources (repeats
    allowed): more than one sweep group of the distance metrics."""
    graph, _ = draw(graphs_and_sources())
    sources = draw(
        st.lists(st.integers(0, graph.num_vertices - 1), max_size=150)
    )
    return graph, sources


@settings(max_examples=200, deadline=None)
@given(case=graphs_and_source_lists())
def test_sweep_matches_the_queue_lane_by_lane(case):
    graph, sources = case
    rows = multi_source_levels(graph, sources)
    assert rows.shape == (len(sources), graph.num_vertices)
    assert rows.dtype == np.int64
    for source, row in zip(sources, rows):
        assert np.array_equal(row, queue_bfs_levels(graph, source))


def test_sweep_rejects_an_out_of_range_source():
    graph = from_edges([(0, 1)], num_vertices=2)
    with pytest.raises(GraphError):
        multi_source_levels(graph, [0, 2])


def _per_source(graph, sample=None, rng=None):
    """Finite non-zero distances of each source, by queue BFS."""
    n = graph.num_vertices
    if sample is None or sample >= n:
        sources = np.arange(n)
    else:
        sources = metrics.sample_sources(graph, sample, rng=rng)
    for s in sources:
        levels = queue_bfs_levels(graph, int(s))
        yield levels[levels > 0]


@st.composite
def distance_graphs(draw):
    """Up to 150 vertices (more than 64 sources with ``sample=None``),
    self-loops, parallel edges and unreachable parts."""
    n = draw(st.integers(min_value=2, max_value=150))
    reach = draw(st.integers(min_value=1, max_value=n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, reach - 1), st.integers(0, reach - 1)),
            max_size=400,
        )
    )
    return from_edges(edges, num_vertices=n)


@settings(max_examples=100, deadline=None)
@given(
    graph=distance_graphs(),
    sample=st.one_of(st.none(), st.integers(1, 100)),
    quantile=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    pairs=st.sampled_from([1, 150, metrics.SWEEP_PAIRS]),
)
def test_distance_metrics_match_one_bfs_per_source(
    graph, sample, quantile, pairs
):
    """Exact equality: the average is the per-source float sum, in source
    order, and the diameter the quantile of every distance. ``pairs``
    sets sweeps of one source, of a few, and of up to 64."""
    total, count, merged = 0.0, 0, []
    for finite in _per_source(graph, sample, np.random.default_rng(5)):
        total += float(finite.sum())
        count += int(finite.size)
        merged.append(finite)
    merged = np.concatenate(merged)
    with mock.patch.object(metrics, "SWEEP_PAIRS", pairs):
        average = metrics.average_distance(
            graph, sample=sample, rng=np.random.default_rng(5)
        )
        diameter = metrics.effective_diameter(
            graph, quantile, sample=sample, rng=np.random.default_rng(5)
        )
    assert average == (total / count if count else 0.0)
    assert diameter == (
        int(np.quantile(merged, quantile, method="higher")) if merged.size else 0
    )


def test_average_distance_adds_source_sums_as_floats_in_order(monkeypatch):
    """Per-source sums past 2**53 round differently in any other order
    (or summed as one integer), so this pins the order itself."""
    graph = from_edges([(0, 1), (1, 2), (2, 0)], num_vertices=3)
    rows = np.array([[0, 2**53, -1], [-1, 0, 1], [1, -1, 0]], dtype=np.int64)
    monkeypatch.setattr(metrics, "multi_source_levels", lambda g, s: rows[s])
    expected = 0.0
    for row_sum in (2**53, 1, 1):
        expected += float(row_sum)
    assert expected != float(2**53 + 2)
    assert metrics.average_distance(graph) == expected / 3
