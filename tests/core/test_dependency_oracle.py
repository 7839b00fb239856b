"""The implicit dependency DAG against the explicit product, array for array.

``build_dependency_dag`` derives the SCC ids, the DAG sketch and the
partition lift from the path <-> vertex incidence lists without forming
the writers x readers product. Every engine digest rests on those arrays
(SCC *ids* are a property of Tarjan's visiting order, and the sketch's
and the lift's edge orders decide what order modeled transfer times are
summed in), so they must equal what condensing the explicit graph gives
— not just describe the same partition.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dependency import build_dependency_dag, lift_edges
from repro.core.dispatch import _partition_dependency_edges
from repro.core.partitioning import decompose_into_paths
from repro.core.paths import Path, PathSet
from repro.core.storage import PathStorage, build_partitions
from repro.graph.builder import from_edges
from repro.verify.structural import check_dependency_dag
from tests.core.dependency_oracle import (
    dependency_product,
    explicit_dependency_dag,
    explicit_group_edges,
    path_incidence,
)
from tests.property.test_partitioning_properties import multigraphs


def hand_built(vertex_paths, num_vertices):
    """A PathSet with exactly these vertex sequences, over the multigraph
    of their edges (edge ids are CSR positions: a stable sort by source
    of the insertion order)."""
    edges = [(a, b) for vs in vertex_paths for a, b in zip(vs, vs[1:])]
    graph = from_edges(edges, num_vertices=num_vertices)
    edge_id = np.empty(len(edges), dtype=np.int64)
    edge_id[np.argsort([a for a, _ in edges], kind="stable")] = np.arange(
        len(edges)
    )
    paths, start = [], 0
    for i, vs in enumerate(vertex_paths):
        stop = start + len(vs) - 1
        ids = tuple(edge_id[start:stop].tolist())
        paths.append(Path(path_id=i, vertices=tuple(vs), edge_ids=ids))
        start = stop
    return PathSet(graph=graph, paths=paths)


def assert_matches_oracle(path_set, target_edges=8):
    dag = build_dependency_dag(path_set)
    oracle = explicit_dependency_dag(path_set)
    writes, reads = path_incidence(path_set)
    assert np.array_equal(dag.writes, writes)
    assert np.array_equal(dag.reads, reads)
    product = dependency_product(dag.writes, dag.reads, dag.num_paths)
    assert np.array_equal(product.indptr, oracle.dependency_graph.indptr)
    assert np.array_equal(product.indices, oracle.dependency_graph.indices)
    assert np.array_equal(dag.scc_of_path, oracle.scc_of_path)
    assert dag.members == oracle.members
    assert np.array_equal(dag.dag.indptr, oracle.dag.indptr)
    assert np.array_equal(dag.dag.indices, oracle.dag.indices)
    assert np.array_equal(dag.layer_of_scc, oracle.layer_of_scc)
    storage = PathStorage(
        path_set, build_partitions(path_set, dag, target_edges)
    )
    lifted = explicit_group_edges(
        oracle.dependency_graph,
        storage.partition_of_paths,
        storage.num_partitions,
    )
    # A set's iteration order follows its insertion order; compare both.
    assert list(_partition_dependency_edges(storage, dag)) == list(
        set(lifted)
    )
    assert all(check.passed for check in check_dependency_dag(path_set, dag))
    return dag, oracle


@st.composite
def vertex_paths(draw):
    """Arbitrary vertex sequences of 2-6 vertices over a few vertices:
    self-loops, revisits, repeated paths and isolated vertices."""
    n = draw(st.integers(min_value=1, max_value=12))
    sequences = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=6),
            max_size=24,
        )
    )
    return sequences, n


@settings(max_examples=120, deadline=None)
@given(case=vertex_paths(), target=st.integers(1, 12))
def test_hand_built_path_sets_match_the_explicit_product(case, target):
    sequences, n = case
    assert_matches_oracle(hand_built(sequences, n), target)


@settings(max_examples=80, deadline=None)
@given(
    graph=multigraphs(),
    d_max=st.integers(1, 8),
    n_workers=st.integers(1, 3),
    flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    target=st.integers(1, 12),
)
def test_decompositions_match_the_explicit_product(
    graph, d_max, n_workers, flags, target
):
    greedy, scc_aware, merge = flags
    path_set = decompose_into_paths(
        graph,
        d_max=d_max,
        n_workers=n_workers,
        degree_greedy=greedy,
        scc_aware=scc_aware,
        merge_short_paths=merge,
    )
    assert_matches_oracle(path_set, target)


@settings(max_examples=80, deadline=None)
@given(case=vertex_paths(), data=st.data())
def test_lift_through_any_grouping_matches_the_explicit_product(case, data):
    sequences, n = case
    path_set = hand_built(sequences, n)
    dag = build_dependency_dag(path_set)
    num_groups = data.draw(st.integers(1, 6))
    groups = np.asarray(
        data.draw(
            st.lists(
                st.integers(0, num_groups - 1),
                min_size=path_set.num_paths,
                max_size=path_set.num_paths,
            )
        ),
        dtype=np.int64,
    )
    src, dst = lift_edges(dag.writes, dag.reads, groups, num_groups)
    product = dependency_product(dag.writes, dag.reads, dag.num_paths)
    assert list(zip(src.tolist(), dst.tolist())) == explicit_group_edges(
        product, groups, num_groups
    )


def _chain(length):
    return [[i, i + 1] for i in range(length)]


def _cycle_split(n, step):
    """A directed n-cycle cut into consecutive paths of ``step`` edges."""
    cycle = list(range(n)) + [0]
    return [cycle[i : i + step + 1] for i in range(0, n, step)]


CASES = {
    "zero paths": ([], 5),
    "single-vertex paths": ([[0, 0], [1, 1, 1], [0, 0]], 2),
    "writes and reads one vertex": ([[0, 1, 0], [1, 2, 1, 3], [3, 1]], 4),
    "one giant SCC": (_cycle_split(60, 3) + [[5, 40], [40, 5, 17]], 60),
    "chain deeper than the recursion limit": (
        _chain(sys.getrecursionlimit() + 200),
        sys.getrecursionlimit() + 201,
    ),
    "isolated vertices": ([[2, 5], [5, 9], [9, 2], [11, 12]], 20),
    "hub read and written by every path": (
        [[i, 0, i + 1] for i in range(1, 40)] + [[0, 40]],
        41,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_edge_cases_match_the_explicit_product(name):
    sequences, n = CASES[name]
    dag, oracle = assert_matches_oracle(hand_built(sequences, n))
    if name == "one giant SCC":
        assert max(len(m) for m in dag.members) >= 20
    if name == "chain deeper than the recursion limit":
        assert dag.num_layers() == dag.num_paths > sys.getrecursionlimit()
