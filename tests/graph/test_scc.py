"""Unit tests for SCC machinery (Tarjan, condensation, parallel variant)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.builder import from_edges
from repro.graph.generators import (
    bowtie_graph,
    directed_cycle,
    directed_path,
    random_directed,
)
from repro.graph.scc import (
    condensation,
    parallel_scc,
    scc_statistics,
    strongly_connected_components,
)


def canonical(labels):
    """Labels up to renaming: map to first-occurrence ids."""
    seen = {}
    out = []
    for value in labels:
        if value not in seen:
            seen[value] = len(seen)
        out.append(seen[value])
    return out


class TestTarjan:
    def test_chain_all_singletons(self):
        labels = strongly_connected_components(directed_path(4))
        assert len(set(labels.tolist())) == 4

    def test_cycle_one_component(self):
        labels = strongly_connected_components(directed_cycle(5))
        assert len(set(labels.tolist())) == 1

    def test_two_cycles_bridge(self):
        g = from_edges(
            [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)], num_vertices=4
        )
        labels = strongly_connected_components(g)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_reverse_topological_ids(self):
        # Tarjan assigns component ids in reverse topological order.
        g = directed_path(3)
        labels = strongly_connected_components(g)
        assert labels[0] > labels[1] > labels[2]

    def test_self_loop_is_singleton(self):
        g = from_edges([(0, 0), (0, 1)])
        labels = strongly_connected_components(g)
        assert labels[0] != labels[1]

    def test_deep_graph_no_recursion_error(self):
        # 5000-vertex chain would blow Python's recursion limit if the
        # implementation recursed.
        g = directed_path(5000)
        labels = strongly_connected_components(g)
        assert len(set(labels.tolist())) == 5000


def recursive_tarjan(graph):
    """Textbook recursive Tarjan: roots ascending, successors in CSR
    order, component ids in completion order."""
    n = graph.num_vertices
    index, lowlink, labels = [None] * n, [0] * n, [None] * n
    stack, counter = [], [0, 0]

    def visit(v):
        index[v] = lowlink[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        for u in graph.successors(v).tolist():
            if index[u] is None:
                visit(u)
                lowlink[v] = min(lowlink[v], lowlink[u])
            elif labels[u] is None:  # still on the stack
                lowlink[v] = min(lowlink[v], index[u])
        if lowlink[v] == index[v]:
            while True:
                w = stack.pop()
                labels[w] = counter[1]
                if w == v:
                    break
            counter[1] += 1

    for root in range(n):
        if index[root] is None:
            visit(root)
    return labels


class TestLabelOrder:
    """SCC *ids* — not just the partition into components — feed the
    dependency DAG's ``scc_of_path`` and every digest downstream, so the
    iterative form must number components exactly like the textbook
    recursion."""

    @pytest.mark.parametrize("seed", range(8))
    def test_ids_match_recursive_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        # Multigraph on purpose: self-loops and parallel edges included.
        edges = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))
        g = from_edges([tuple(e) for e in edges.tolist()], num_vertices=n)
        assert (
            strongly_connected_components(g).tolist() == recursive_tarjan(g)
        )

    def test_condensation_lists_successors_in_first_reached_order(self):
        # Components: {0,1} -> {4}, {0,1} -> {2,3}, {0,1} -> {4} again,
        # {2,3} -> {4}. Tarjan completes {4} first, then {2,3}, then {0,1}.
        g = from_edges(
            [(0, 1), (1, 0), (0, 4), (1, 2), (1, 4), (2, 3), (3, 2), (3, 4)],
            num_vertices=5,
        )
        cond = condensation(g)
        assert cond.labels.tolist() == [2, 2, 1, 1, 0]
        assert cond.members == ((4,), (2, 3), (0, 1))
        assert cond.dag.successors(2).tolist() == [0, 1]
        assert cond.dag.successors(1).tolist() == [0]
        assert cond.dag.num_edges == 3


class TestCondensation:
    def test_dag_is_acyclic(self):
        g = bowtie_graph(core=5, in_tail=3, out_tail=3, seed=1)
        cond = condensation(g)
        from repro.graph.traversal import topological_order
        topological_order(cond.dag)  # raises on a cycle

    def test_members_partition_vertices(self):
        g = bowtie_graph(core=5, in_tail=3, out_tail=3, seed=1)
        cond = condensation(g)
        all_members = sorted(v for ms in cond.members for v in ms)
        assert all_members == list(range(g.num_vertices))

    def test_giant_component(self):
        g = bowtie_graph(core=6, in_tail=2, out_tail=2, seed=1)
        cond = condensation(g)
        assert len(cond.members[cond.giant_component()]) == 6

    def test_edges_respect_membership(self):
        g = bowtie_graph(core=4, in_tail=2, out_tail=2, seed=2)
        cond = condensation(g)
        for a, b, _ in cond.dag.edges():
            assert a != b


class TestParallelSCC:
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 7])
    def test_matches_direct_tarjan(self, n_workers):
        g = random_directed(60, 200, seed=5)
        direct = canonical(strongly_connected_components(g).tolist())
        sharded = canonical(parallel_scc(g, n_workers=n_workers).tolist())
        assert direct == sharded

    def test_invalid_workers(self):
        with pytest.raises(GraphError):
            parallel_scc(directed_path(3), n_workers=0)

    def test_empty_graph(self):
        g = from_edges([], num_vertices=0)
        assert parallel_scc(g, n_workers=2).size == 0


class TestStatistics:
    def test_dag_all_one_update(self):
        stats = scc_statistics(directed_path(6))
        assert stats.one_update_fraction == 1.0
        assert stats.giant_scc_vertices == 1

    def test_cycle_no_one_update(self):
        stats = scc_statistics(directed_cycle(6))
        assert stats.one_update_fraction == 0.0
        assert stats.giant_scc_fraction == 1.0

    def test_self_loop_not_one_update(self):
        g = from_edges([(0, 0), (0, 1)])
        stats = scc_statistics(g)
        # vertex 0 has a self-loop (cycle), vertex 1 is one-update
        assert stats.one_update_fraction == 0.5

    def test_bowtie(self):
        stats = scc_statistics(bowtie_graph(core=5, in_tail=5, out_tail=5))
        assert stats.giant_scc_vertices == 5
        assert stats.one_update_fraction == pytest.approx(10 / 15)
