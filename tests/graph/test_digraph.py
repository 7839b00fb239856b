"""Unit tests for the CSR/CSC directed graph."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.builder import from_edges
from repro.graph.digraph import DiGraphCSR


@pytest.fixture
def diamond():
    #   0 -> 1 -> 3
    #   0 -> 2 -> 3
    return from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])


class TestConstruction:
    def test_shape(self, diamond):
        assert diamond.num_vertices == 4
        assert diamond.num_edges == 4

    def test_empty_graph(self):
        g = from_edges([], num_vertices=3)
        assert g.num_vertices == 3
        assert g.num_edges == 0

    def test_single_vertex_no_edges(self):
        g = from_edges([], num_vertices=1)
        assert g.out_degree(0) == 0
        assert g.in_degree(0) == 0

    def test_bad_indptr_start(self):
        with pytest.raises(GraphError):
            DiGraphCSR(np.array([1, 2]), np.array([0]))

    def test_bad_indptr_end(self):
        with pytest.raises(GraphError):
            DiGraphCSR(np.array([0, 2]), np.array([0]))

    def test_decreasing_indptr(self):
        with pytest.raises(GraphError):
            DiGraphCSR(np.array([0, 2, 1, 3]), np.array([0, 1, 2]))

    def test_destination_out_of_range(self):
        with pytest.raises(GraphError):
            DiGraphCSR(np.array([0, 1]), np.array([5]))

    def test_mismatched_weights(self):
        with pytest.raises(GraphError):
            DiGraphCSR(
                np.array([0, 1]), np.array([0]), weights=np.array([1.0, 2.0])
            )

    def test_default_weights_are_ones(self, diamond):
        assert np.all(diamond.weights == 1.0)

    def test_arrays_read_only(self, diamond):
        with pytest.raises(ValueError):
            diamond.indices[0] = 3


class TestAdjacency:
    def test_successors(self, diamond):
        assert sorted(diamond.successors(0).tolist()) == [1, 2]
        assert diamond.successors(3).size == 0

    def test_predecessors(self, diamond):
        assert sorted(diamond.predecessors(3).tolist()) == [1, 2]
        assert diamond.predecessors(0).size == 0

    def test_degrees(self, diamond):
        assert diamond.out_degree(0) == 2
        assert diamond.in_degree(3) == 2
        assert diamond.degree(0) == 2
        assert np.array_equal(diamond.out_degree(), [2, 1, 1, 0])
        assert np.array_equal(diamond.in_degree(), [0, 1, 1, 2])

    def test_vertex_out_of_range(self, diamond):
        with pytest.raises(GraphError):
            diamond.successors(4)
        with pytest.raises(GraphError):
            diamond.predecessors(-1)

    def test_edge_endpoints(self, diamond):
        endpoints = [diamond.edge_endpoints(e) for e in range(4)]
        assert set(endpoints) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_edge_endpoints_out_of_range(self, diamond):
        with pytest.raises(GraphError):
            diamond.edge_endpoints(4)

    def test_edge_sources_parallel_to_indices(self, diamond):
        srcs = diamond.edge_sources()
        for eid in range(diamond.num_edges):
            assert diamond.edge_endpoints(eid)[0] == srcs[eid]

    def test_edges_iterator(self, diamond):
        edges = {(s, d) for s, d, _ in diamond.edges()}
        assert edges == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_has_edge(self, diamond):
        assert diamond.has_edge(0, 1)
        assert not diamond.has_edge(1, 0)

    def test_in_weights_parallel_to_predecessors(self):
        g = from_edges([(0, 2, 5.0), (1, 2, 7.0)])
        preds = g.predecessors(2).tolist()
        weights = g.in_weights(2).tolist()
        assert dict(zip(preds, weights)) == {0: 5.0, 1: 7.0}


class TestDerivedGraphs:
    def test_reverse_roundtrip(self, diamond):
        assert diamond.reverse().reverse() == diamond

    def test_reverse_edges(self, diamond):
        rev = diamond.reverse()
        assert rev.has_edge(1, 0)
        assert rev.has_edge(3, 2)
        assert not rev.has_edge(0, 1)

    def test_subgraph_keeps_internal_edges(self, diamond):
        sub = diamond.subgraph_vertices([0, 1, 3])
        # 0->1 and 1->3 survive (relabelled); 0->2->3 drops.
        assert sub.num_vertices == 3
        assert sub.num_edges == 2
        assert sub.has_edge(0, 1)
        assert sub.has_edge(1, 2)

    def test_subgraph_relabels_ascending_and_deduplicated(self):
        """Input order and repeats do not matter: the i-th smallest
        distinct id becomes vertex i."""
        weighted = from_edges(
            [(0, 1, 2.0), (0, 2, 3.0), (1, 3, 5.0), (2, 3, 7.0), (3, 0, 11.0)]
        )
        sub = weighted.subgraph_vertices([3, 0, 1, 3])
        assert sub == weighted.subgraph_vertices([0, 1, 3])
        assert sub.num_vertices == 3
        assert sub.indptr.tolist() == [0, 1, 2, 3]
        assert sub.indices.tolist() == [1, 2, 0]
        assert sub.weights.tolist() == [2.0, 5.0, 11.0]

    def test_subgraph_out_of_range(self, diamond):
        with pytest.raises(GraphError):
            diamond.subgraph_vertices([0, 9])

    def test_subgraph_empty(self, diamond):
        sub = diamond.subgraph_vertices([])
        assert sub.num_vertices == 0


class TestEquality:
    def test_equal_graphs(self):
        a = from_edges([(0, 1), (1, 2)])
        b = from_edges([(0, 1), (1, 2)])
        assert a == b

    def test_unequal_weights(self):
        a = from_edges([(0, 1, 1.0)])
        b = from_edges([(0, 1, 2.0)])
        assert a != b

    def test_repr(self, diamond):
        assert "num_vertices=4" in repr(diamond)
