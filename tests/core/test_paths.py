"""Unit tests for PathSet: its one constructor and the views of its layout."""

import numpy as np
import pytest

from repro.core.paths import PathSet
from repro.core.partitioning import decompose_into_paths
from repro.errors import PartitioningError
from repro.graph.builder import from_edges
from repro.graph.generators import directed_path
from repro.verify.structural import _paths_by_vertex


@pytest.fixture
def chain():
    g = directed_path(4)
    return g, PathSet.from_sequences(g, [(0, 1, 2, 3)], [(0, 1, 2)])


class TestFromSequences:
    def test_views(self, chain):
        _, ps = chain
        assert len(ps) == ps.num_paths == 1
        assert ps.sequences == ((0, 1, 2, 3),)
        assert ps.edges_of(0).tolist() == [0, 1, 2]
        assert ps.layout.lengths.tolist() == [4]
        assert ps.total_edges() == 3

    def test_layout_is_read_only(self, chain):
        _, ps = chain
        with pytest.raises(ValueError):
            ps.edges_of(0)[0] = 7
        with pytest.raises(ValueError):
            ps.average_degrees[0] = 0.0

    def test_edges_of_unknown_path(self, chain):
        _, ps = chain
        for path_id in (-1, 1):
            with pytest.raises(PartitioningError):
                ps.edges_of(path_id)

    def test_needs_an_edge(self):
        with pytest.raises(PartitioningError):
            PathSet.from_sequences(directed_path(4), [(0,)], [()])

    def test_edge_vertex_count_mismatch(self):
        with pytest.raises(PartitioningError):
            PathSet.from_sequences(directed_path(4), [(0, 1)], [(0, 1)])

    def test_one_edge_sequence_per_path(self):
        with pytest.raises(PartitioningError):
            PathSet.from_sequences(directed_path(4), [(0, 1), (1, 2)], [(0,)])

    def test_validate_against_graph(self, chain):
        _, ps = chain
        ps.validate()

    def test_validate_catches_wrong_edge(self):
        g = directed_path(4)
        bad = PathSet.from_sequences(g, [(0, 2), (2, 3)], [(0,), (2,)])
        with pytest.raises(PartitioningError, match="paths.connectivity"):
            bad.validate()

    def test_average_degree(self, chain):
        _, ps = chain
        # chain degrees: 1, 2, 2, 1 -> mean 1.5
        assert ps.average_degrees.tolist() == [1.5]


class TestPathSet:
    @pytest.fixture
    def decomposition(self):
        g = from_edges([(0, 1), (1, 2), (1, 3), (3, 1)])
        return decompose_into_paths(g)

    def test_validate_passes(self, decomposition):
        decomposition.validate()

    def test_total_edges_covered(self, decomposition):
        assert decomposition.total_edges() == decomposition.graph.num_edges

    def test_validate_catches_duplicate_edge(self):
        g = directed_path(3)
        ps = PathSet.from_sequences(g, [(0, 1), (0, 1)], [(0,), (0,)])
        with pytest.raises(PartitioningError, match="paths.edge-disjoint"):
            ps.validate()

    def test_validate_catches_missing_edge(self):
        g = directed_path(3)
        ps = PathSet.from_sequences(g, [(0, 1)], [(0,)])
        with pytest.raises(PartitioningError, match="paths.coverage"):
            ps.validate()

    def test_validate_catches_over_depth(self, chain):
        g, ps = chain
        ps.d_max = 2
        with pytest.raises(PartitioningError, match="paths.d-max"):
            ps.validate()

    def test_occurrence_maps(self):
        g = directed_path(3)
        ps = PathSet.from_sequences(g, [(0, 1, 2)], [(0, 1)])
        assert _paths_by_vertex(ps, writes=True) == {1: [0], 2: [0]}
        assert _paths_by_vertex(ps, writes=False) == {0: [0], 1: [0]}

    def test_average_length(self, decomposition):
        assert decomposition.average_length() > 0

    def test_hot_ids_and_bound_are_kept(self):
        g = directed_path(3)
        ps = PathSet.from_sequences(
            g, [(0, 1), (1, 2)], [(0,), (1,)], hot_path_ids=[1], d_max=4
        )
        assert ps.hot_path_ids == frozenset({1})
        assert ps.is_hot(1) and not ps.is_hot(0)
        assert ps.d_max == 4

    def test_empty(self):
        ps = PathSet.from_sequences(from_edges([], num_vertices=0), [], [])
        assert ps.num_paths == 0 and ps.sequences == ()
        assert ps.average_degrees.size == 0
        assert np.array_equal(ps.layout.starts, np.zeros(0, dtype=np.int64))
        ps.validate()
