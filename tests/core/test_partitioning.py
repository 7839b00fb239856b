"""Unit tests for Algorithm 1 path decomposition."""

import numpy as np
import pytest

from repro.core.partitioning import (
    D_MAX,
    decompose_into_paths,
    modeled_preprocess_seconds,
)
from repro.errors import PartitioningError
from repro.graph.builder import from_edges
from repro.graph.generators import (
    directed_cycle,
    directed_path,
    random_directed,
    scc_profile_graph,
)


class TestDecomposition:
    def test_chain_is_one_path(self):
        ps = decompose_into_paths(directed_path(5))
        assert ps.num_paths == 1
        assert ps.sequences[0] == (0, 1, 2, 3, 4)

    def test_cycle_is_one_closed_path(self):
        ps = decompose_into_paths(directed_cycle(4))
        assert ps.num_paths == 1
        assert ps.sequences[0][0] == ps.sequences[0][-1]

    def test_covers_all_edges(self):
        g = random_directed(40, 160, seed=1)
        ps = decompose_into_paths(g)
        ps.validate()

    def test_d_max_bounds_length(self):
        g = directed_path(40)
        ps = decompose_into_paths(g, d_max=5)
        # d_max hops + final edge
        assert all(len(vs) - 1 <= 6 for vs in ps.sequences)

    def test_default_d_max_is_paper_value(self):
        assert D_MAX == 16

    def test_deterministic(self):
        g = random_directed(30, 100, seed=2)
        a = decompose_into_paths(g)
        b = decompose_into_paths(g)
        assert a.sequences == b.sequences

    def test_invalid_args(self):
        g = directed_path(3)
        with pytest.raises(PartitioningError):
            decompose_into_paths(g, d_max=0)
        with pytest.raises(PartitioningError):
            decompose_into_paths(g, n_workers=0)
        with pytest.raises(PartitioningError):
            decompose_into_paths(g, hot_fraction=1.5)


class TestWorkers:
    @pytest.mark.parametrize("n_workers", [1, 2, 5])
    def test_any_worker_count_covers_edges(self, n_workers):
        g = random_directed(50, 200, seed=3)
        ps = decompose_into_paths(g, n_workers=n_workers)
        ps.validate()

    def test_more_workers_more_fragments(self):
        # Worker boundaries cut walks, so paths can only get shorter.
        g = scc_profile_graph(200, 4.0, 0.5, 4.0, seed=4)
        one = decompose_into_paths(g, n_workers=1)
        many = decompose_into_paths(g, n_workers=8)
        assert many.average_length() <= one.average_length() + 1e-9


class TestMerging:
    def test_merge_does_not_shrink_average(self):
        g = random_directed(60, 250, seed=5)
        merged = decompose_into_paths(g, merge_short_paths=True)
        unmerged = decompose_into_paths(g, merge_short_paths=False)
        assert merged.average_length() >= unmerged.average_length()
        merged.validate()

    def test_merge_junction_constraint(self):
        # A hub with in/out degree > 1 that is inner to some path must
        # not become a junction of a new merge.
        g = scc_profile_graph(150, 5.0, 0.5, 4.0, seed=6)
        ps = decompose_into_paths(g)
        ps.validate()  # structural sanity after merging


class TestSCCAware:
    def test_paths_confined_to_regions(self):
        from repro.core.partitioning import _walk_regions

        g = scc_profile_graph(200, 4.0, 0.5, 5.0, seed=7)
        region = _walk_regions(g, 16)
        ps = decompose_into_paths(g, scc_aware=True)
        for vertices in ps.sequences:
            # All but the final vertex share one walk region.
            body = vertices[:-1]
            assert len({int(region[v]) for v in body}) == 1

    def test_bands_keep_dag_chains_whole(self):
        # A short chain fits one band -> one path despite singleton SCCs.
        ps = decompose_into_paths(directed_path(5))
        assert ps.num_paths == 1

    def test_non_scc_aware_covers_too(self):
        g = scc_profile_graph(150, 4.0, 0.5, 5.0, seed=8)
        ps = decompose_into_paths(g, scc_aware=False)
        ps.validate()


class TestHotPaths:
    def test_hot_fraction_count(self):
        g = random_directed(60, 240, seed=9)
        ps = decompose_into_paths(g, hot_fraction=0.2)
        expected = max(1, round(0.2 * ps.num_paths))
        assert len(ps.hot_path_ids) == expected

    def test_hot_paths_are_hottest(self):
        g = scc_profile_graph(200, 5.0, 0.6, 4.0, seed=10)
        ps = decompose_into_paths(g, hot_fraction=0.1)
        average_degree = [
            float(np.mean([g.degree(v) for v in vertices]))
            for vertices in ps.sequences
        ]
        hot = [average_degree[p] for p in ps.hot_path_ids]
        cold = [
            degree
            for p, degree in enumerate(average_degree)
            if p not in ps.hot_path_ids
        ]
        assert min(hot) >= max(cold) - 1e-9

    def test_zero_hot_fraction(self):
        g = directed_path(5)
        ps = decompose_into_paths(g, hot_fraction=0.0)
        assert not ps.hot_path_ids


class TestPreprocessModel:
    def test_scales_down_with_workers(self):
        g = random_directed(50, 200, seed=11)
        one = modeled_preprocess_seconds(g, 1, dependency_vertices=50)
        four = modeled_preprocess_seconds(g, 4, dependency_vertices=50)
        assert four < one

    def test_dependency_cost_adds(self):
        g = random_directed(50, 200, seed=11)
        without = modeled_preprocess_seconds(g, 1, dependency_vertices=0)
        with_dep = modeled_preprocess_seconds(g, 1, dependency_vertices=500)
        assert with_dep > without
