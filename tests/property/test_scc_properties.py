"""Property-based tests for SCC machinery."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.builder import from_edges
from repro.graph.scc import condensation, strongly_connected_components
from repro.graph.traversal import is_reachable, topological_order


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=15))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=45,
            unique=True,
        )
    )
    return from_edges(edges, num_vertices=n)


@settings(max_examples=60, deadline=None)
@given(graph=small_digraphs())
def test_same_component_iff_mutually_reachable(graph):
    labels = strongly_connected_components(graph)
    n = graph.num_vertices
    for a in range(min(n, 6)):
        for b in range(min(n, 6)):
            mutual = is_reachable(graph, a, b) and is_reachable(graph, b, a)
            assert (labels[a] == labels[b]) == mutual


@settings(max_examples=60, deadline=None)
@given(graph=small_digraphs())
def test_condensation_always_acyclic(graph):
    cond = condensation(graph)
    topological_order(cond.dag)


@settings(max_examples=60, deadline=None)
@given(graph=small_digraphs())
def test_labels_number_components_in_reverse_topological_order(graph):
    """Tarjan completes a component only after every component it
    reaches, so an edge never points to a higher label."""
    labels = strongly_connected_components(graph)
    assert set(labels.tolist()) == set(range(int(labels.max()) + 1))
    for a, b, _ in graph.edges():
        assert labels[a] >= labels[b]


@settings(max_examples=60, deadline=None)
@given(graph=small_digraphs())
def test_condensation_members_are_the_label_classes(graph):
    labels = strongly_connected_components(graph)
    cond = condensation(graph)
    assert np.array_equal(cond.labels, labels)
    for component, members in enumerate(cond.members):
        assert list(members) == np.flatnonzero(labels == component).tolist()
