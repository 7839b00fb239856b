"""Path repair: split/extend/merge correctness and exact DAG patching."""

import numpy as np
import pytest

from repro.core.partitioning import decompose_into_paths
from repro.errors import StreamingError
from repro.graph.builder import from_edges
from repro.graph.generators import mutation_trace, scc_profile_graph
from repro.streaming import (
    Mutation,
    MutationBatch,
    PathRepairer,
    apply_batch,
)
from tests.core.dependency_oracle import (
    dependency_product,
    explicit_dependency_dag,
)


def assert_dag_matches_rebuild(result):
    """The repaired DAG must equal the explicit build over the repaired
    paths bit for bit."""
    golden = explicit_dependency_dag(result.path_set)
    dependency = dependency_product(
        result.dag.writes, result.dag.reads, result.dag.num_paths
    )
    assert np.array_equal(dependency.indptr, golden.dependency_graph.indptr)
    assert np.array_equal(
        dependency.indices, golden.dependency_graph.indices
    )
    assert np.array_equal(result.dag.scc_of_path, golden.scc_of_path)
    assert np.array_equal(result.dag.layer_of_scc, golden.layer_of_scc)
    assert np.array_equal(result.dag.dag.indices, golden.dag.indices)


def repair_once(graph, batch):
    repairer = PathRepairer(decompose_into_paths(graph))
    applied = apply_batch(graph, batch)
    return repairer.apply(applied), applied


class TestRepairOperations:
    def test_delete_splits_path(self):
        # One long chain: deleting a middle edge must split its path.
        graph = from_edges(
            [(i, i + 1) for i in range(8)], num_vertices=9
        )
        result, applied = repair_once(
            graph, MutationBatch((Mutation.delete(4, 5),))
        )
        result.path_set.validate()
        assert result.paths_split == 1
        assert result.fragments_added >= 1
        assert_dag_matches_rebuild(result)

    def test_delete_whole_path_removes_it(self):
        # An isolated single-edge component decomposes to its own path;
        # deleting the edge removes the path without fragments.
        graph = from_edges(
            [(0, 1), (2, 3), (3, 4)], num_vertices=5
        )
        result, _ = repair_once(
            graph, MutationBatch((Mutation.delete(0, 1),))
        )
        result.path_set.validate()
        assert result.paths_removed == 1
        assert result.fragments_added == 0
        assert_dag_matches_rebuild(result)

    def test_insert_extends_or_creates(self):
        graph = from_edges(
            [(0, 1), (1, 2), (5, 6)], num_vertices=8
        )
        result, _ = repair_once(
            graph, MutationBatch((Mutation.insert(2, 5),))
        )
        result.path_set.validate()
        assert result.paths_extended + result.paths_created >= 1
        assert_dag_matches_rebuild(result)

    def test_insert_into_empty_region_creates_singleton(self):
        graph = from_edges([(0, 1)], num_vertices=6)
        result, _ = repair_once(
            graph, MutationBatch((Mutation.insert(3, 4),))
        )
        result.path_set.validate()
        assert result.paths_created == 1
        assert_dag_matches_rebuild(result)

    def test_d_max_respected_after_repair(self):
        graph = scc_profile_graph(
            n=60, avg_degree=3.0, giant_scc_fraction=0.4,
            avg_distance=4.0, seed=3,
        )
        repairer = PathRepairer(decompose_into_paths(graph, d_max=4))
        for batch in mutation_trace(
            graph, n_batches=3, seed=5, batch_size=6, mix="mixed"
        ):
            applied = apply_batch(graph, batch)
            result = repairer.apply(applied)
            graph = applied.graph
            result.path_set.validate()
            for vertices in result.path_set.sequences:
                assert len(vertices) - 1 <= 4

    def test_stale_graph_rejected(self):
        graph = from_edges([(0, 1), (1, 2)], num_vertices=3)
        repairer = PathRepairer(decompose_into_paths(graph))
        applied = apply_batch(graph, MutationBatch((Mutation.insert(0, 2),)))
        repairer.apply(applied)
        # Re-applying a batch rooted at the pre-repair graph must fail.
        with pytest.raises(StreamingError, match="different graph"):
            repairer.apply(applied)

    def test_paths_repaired_totals_counters(self):
        graph = from_edges(
            [(i, i + 1) for i in range(8)], num_vertices=9
        )
        result, _ = repair_once(
            graph,
            MutationBatch(
                (Mutation.delete(4, 5), Mutation.insert(0, 7))
            ),
        )
        assert result.paths_repaired == (
            result.paths_split
            + result.fragments_added
            + result.paths_extended
            + result.paths_merged
            + result.paths_created
            + result.paths_removed
        )
        assert result.paths_repaired > 0
        assert result.touched_edge_work > 0
        assert result.modeled_seconds > 0.0


class TestRepairMatchesRebuildOnTraces:
    @pytest.mark.parametrize("mix", ["insert", "delete", "mixed"])
    def test_trace_keeps_decomposition_and_dag_exact(self, mix):
        graph = scc_profile_graph(
            n=70, avg_degree=3.0, giant_scc_fraction=0.4,
            avg_distance=4.0, seed=9,
        )
        repairer = PathRepairer(decompose_into_paths(graph))
        for batch in mutation_trace(
            graph, n_batches=4, seed=13, batch_size=6, mix=mix
        ):
            applied = apply_batch(graph, batch)
            result = repairer.apply(applied)
            graph = applied.graph
            result.path_set.validate()
            assert_dag_matches_rebuild(result)

    def test_hot_classification_is_sticky_for_untouched_paths(self):
        graph = scc_profile_graph(
            n=70, avg_degree=3.0, giant_scc_fraction=0.4,
            avg_distance=4.0, seed=21,
        )
        initial = decompose_into_paths(graph)
        repairer = PathRepairer(initial)
        untouched_hot = {
            initial.sequences[pid]
            for pid in initial.hot_path_ids
        }
        batch = mutation_trace(
            graph, n_batches=1, seed=2, batch_size=2, mix="insert"
        )[0]
        result = repairer.apply(apply_batch(graph, batch))
        after_hot = {
            result.path_set.sequences[pid]
            for pid in result.path_set.hot_path_ids
        }
        # Every initially-hot path that survived the batch unchanged is
        # still hot afterwards.
        surviving = set(result.path_set.sequences)
        assert (untouched_hot & surviving) <= after_hot
