"""Unit tests for the graph builder."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder, from_edges


class TestGraphBuilder:
    def test_chained_adds(self):
        g = GraphBuilder().add_edge(0, 1).add_edge(1, 2).build()
        assert g.num_edges == 2

    def test_infers_vertex_count(self):
        g = from_edges([(0, 7)])
        assert g.num_vertices == 8

    def test_fixed_vertex_count(self):
        g = from_edges([(0, 1)], num_vertices=10)
        assert g.num_vertices == 10

    def test_edge_outside_fixed_count(self):
        builder = GraphBuilder(num_vertices=2)
        with pytest.raises(GraphError):
            builder.add_edge(0, 5)

    def test_negative_vertex(self):
        with pytest.raises(GraphError):
            GraphBuilder().add_edge(-1, 0)

    def test_negative_vertex_count(self):
        with pytest.raises(GraphError):
            GraphBuilder(num_vertices=-1)

    def test_weighted_edges(self):
        g = from_edges([(0, 1, 3.5)])
        assert g.out_weights(0).tolist() == [3.5]

    def test_malformed_edge_tuple(self):
        with pytest.raises(GraphError):
            from_edges([(0, 1, 2.0, 9)])

    def test_deduplicate_keeps_first(self):
        g = from_edges([(0, 1, 1.0), (0, 1, 2.0)], deduplicate=True)
        assert g.num_edges == 1
        assert g.out_weights(0).tolist() == [1.0]

    def test_deduplicate_first_weight_wins_across_chunks(self):
        # Parallel edges with differing weights, staged through both the
        # scalar and the array entry points: the first one staged wins,
        # and a vertex's surviving edges keep their staging order.
        builder = GraphBuilder(deduplicate=True)
        builder.add_edge(2, 0, 5.0)
        builder.add_edge_arrays(
            np.array([0, 2, 0, 0]),
            np.array([3, 0, 1, 3]),
            np.array([1.5, 6.0, 2.5, 9.0]),
        )
        builder.add_edge(0, 1, 7.0).add_edge(0, 2, 3.5)
        builder.add_edge_arrays(np.array([2]), np.array([0]), np.array([8.0]))
        assert builder.num_staged_edges == 8
        g = builder.build()
        assert g.successors(0).tolist() == [3, 1, 2]
        assert g.out_weights(0).tolist() == [1.5, 2.5, 3.5]
        assert g.successors(2).tolist() == [0]
        assert g.out_weights(2).tolist() == [5.0]

    def test_array_chunks_are_copied(self):
        # A chunk reader may refill its buffers between calls.
        src, dst = np.array([0, 1]), np.array([1, 2])
        builder = GraphBuilder().add_edge_arrays(src, dst)
        src[:] = 2
        dst[:] = 0
        assert list(builder.build().edges()) == [(0, 1, 1.0), (1, 2, 1.0)]

    def test_no_dedup_keeps_parallel_edges(self):
        g = from_edges([(0, 1), (0, 1)])
        assert g.num_edges == 2

    def test_insertion_order_preserved_per_vertex(self):
        g = from_edges([(0, 3), (0, 1), (0, 2)])
        assert g.successors(0).tolist() == [3, 1, 2]

    def test_staged_count(self):
        builder = GraphBuilder().add_edges([(0, 1), (1, 2)])
        assert builder.num_staged_edges == 2

    def test_empty_build(self):
        g = GraphBuilder(num_vertices=4).build()
        assert g.num_vertices == 4
        assert g.num_edges == 0
