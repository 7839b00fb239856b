"""Unit tests for the path dependency DAG."""

import numpy as np
import pytest

from repro.core.dependency import build_dependency_dag
from repro.core.partitioning import decompose_into_paths
from repro.core.paths import Path, PathSet
from repro.core.storage import build_partitions
from repro.graph.builder import from_edges
from repro.graph.generators import directed_cycle, directed_path, scc_profile_graph
from repro.graph.traversal import topological_order
from tests.core.dependency_oracle import dependency_product


def product_of(dag):
    """The explicit dependency graph of a DAG's stored incidence."""
    return dependency_product(dag.writes, dag.reads, dag.num_paths)


def pathset(graph, vertex_paths):
    """Build a PathSet from explicit vertex sequences."""
    edge_of = {}
    for eid in range(graph.num_edges):
        edge_of[graph.edge_endpoints(eid)] = eid
    paths = []
    for i, vs in enumerate(vertex_paths):
        eids = tuple(edge_of[(vs[j], vs[j + 1])] for j in range(len(vs) - 1))
        paths.append(Path(path_id=i, vertices=tuple(vs), edge_ids=eids))
    return PathSet(graph=graph, paths=paths)


class TestDependencyEdges:
    def test_writer_to_reader(self):
        # p0 writes vertex 1 (tail), p1 reads vertex 1 (head) -> p0 -> p1
        g = directed_path(3)
        ps = pathset(g, [[0, 1], [1, 2]])
        dependency = product_of(build_dependency_dag(ps))
        assert dependency.has_edge(0, 1)
        assert not dependency.has_edge(1, 0)

    def test_independent_paths(self):
        g = from_edges([(0, 1), (2, 3)])
        ps = pathset(g, [[0, 1], [2, 3]])
        assert product_of(build_dependency_dag(ps)).num_edges == 0

    def test_mutual_dependency_forms_scc(self):
        # cycle split into two paths: each writes what the other reads
        g = directed_cycle(4)
        ps = pathset(g, [[0, 1, 2], [2, 3, 0]])
        dag = build_dependency_dag(ps)
        assert dag.num_scc_vertices == 1
        assert dag.scc_of_path[0] == dag.scc_of_path[1]


class TestDAGSketch:
    def test_sketch_is_acyclic(self):
        g = scc_profile_graph(150, 4.0, 0.5, 4.0, seed=1)
        ps = decompose_into_paths(g)
        dag = build_dependency_dag(ps)
        topological_order(dag.dag)  # raises on a cycle

    def test_members_partition_paths(self):
        g = scc_profile_graph(150, 4.0, 0.5, 4.0, seed=2)
        ps = decompose_into_paths(g)
        dag = build_dependency_dag(ps)
        members = sorted(p for ms in dag.members for p in ms)
        assert members == list(range(ps.num_paths))

    def test_layers_respect_edges(self):
        g = scc_profile_graph(150, 4.0, 0.5, 4.0, seed=3)
        dag = build_dependency_dag(decompose_into_paths(g))
        for a, b, _ in dag.dag.edges():
            assert dag.layer_of_scc[b] > dag.layer_of_scc[a]

    def test_layer_of_path(self):
        g = directed_path(3)
        ps = pathset(g, [[0, 1], [1, 2]])
        dag = build_dependency_dag(ps)
        assert dag.layer_of_path(0) == 0
        assert dag.layer_of_path(1) == 1

    def test_giant_fraction(self):
        g = directed_cycle(4)
        ps = pathset(g, [[0, 1, 2], [2, 3, 0]])
        dag = build_dependency_dag(ps)
        assert dag.giant_scc_path_fraction() == 1.0


def scc_vertices_in_layout_order(path_set, dag):
    """The SCC-vertices in the order ``build_partitions`` lays out their
    paths, one partition per layer."""
    sccs = [
        int(dag.scc_of_path[p])
        for partition in build_partitions(path_set, dag, 10 ** 6)
        for p in partition.path_ids
    ]
    return [s for i, s in enumerate(sccs) if i == 0 or s != sccs[i - 1]]


class TestLayerOrdering:
    def test_grouped_by_layer_ascending(self):
        g = scc_profile_graph(150, 4.0, 0.5, 4.0, seed=4)
        ps = decompose_into_paths(g)
        dag = build_dependency_dag(ps)
        order = scc_vertices_in_layout_order(ps, dag)
        assert sorted(order) == list(range(dag.num_scc_vertices))
        layers = dag.layer_of_scc[order]
        assert (np.diff(layers) >= 0).all()

    def test_same_layer_orders_by_downstream_paths(self):
        # two layer-0 SCCs: one feeding a big successor first
        g = from_edges([(0, 1), (2, 3), (1, 4), (4, 5), (1, 6)])
        ps = pathset(g, [[0, 1], [2, 3], [1, 4, 5], [1, 6]])
        dag = build_dependency_dag(ps)
        layer0 = [
            s for s in scc_vertices_in_layout_order(ps, dag)
            if dag.layer_of_scc[s] == 0
        ]
        first = layer0[0]
        # the SCC with more downstream paths comes first
        downstream_of_first = sum(
            len(dag.members[int(s)]) for s in dag.scc_successors(first)
        )
        for other in layer0[1:]:
            downstream = sum(
                len(dag.members[int(s)]) for s in dag.scc_successors(other)
            )
            assert downstream_of_first >= downstream
