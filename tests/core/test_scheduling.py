"""Unit tests for Pri(p) scheduling and thread balancing."""

import numpy as np
import pytest

from repro.core.dependency import build_dependency_dag
from repro.core.partitioning import decompose_into_paths
from repro.core.scheduling import PathScheduler, balance_paths_to_threads
from repro.errors import SchedulingError
from repro.graph.generators import scc_profile_graph


@pytest.fixture
def scheduler():
    g = scc_profile_graph(150, 4.0, 0.5, 4.0, seed=1)
    ps = decompose_into_paths(g)
    dag = build_dependency_dag(ps)
    return g, ps, dag, PathScheduler(ps, dag)


def everything_active(g):
    return np.ones(g.num_vertices, dtype=bool)


class TestPriority:
    def test_alpha_keeps_degree_term_below_one(self, scheduler):
        _, ps, _, sched = scheduler
        for p in range(ps.num_paths):
            term = (
                sched.alpha
                * ps[p].average_degree(ps.graph)
                * ps[p].num_vertices
            )
            assert term <= 1.0 + 1e-9

    def test_lower_layer_always_wins(self, scheduler):
        g, ps, dag, sched = scheduler
        active = everything_active(g)
        by_layer = {}
        for p in range(ps.num_paths):
            by_layer.setdefault(dag.layer_of_path(p), []).append(p)
        if len(by_layer) < 2:
            pytest.skip("graph produced a single layer")
        low = min(by_layer)
        high = max(by_layer)
        assert sched.priority(by_layer[low][0], active) > sched.priority(
            by_layer[high][0], active
        )

    def test_inactive_path_scores_lower(self, scheduler):
        g, ps, dag, sched = scheduler
        p = 0
        active = everything_active(g)
        before = sched.priority(p, active)
        active[list(ps[p].vertices)] = False
        assert sched.priority(p, active) < before

    def test_priority_out_of_range(self, scheduler):
        sched = scheduler[3]
        with pytest.raises(SchedulingError):
            sched.priority(10 ** 6, everything_active(scheduler[0]))

    def test_order_descending(self, scheduler):
        g, ps, _, sched = scheduler
        active = everything_active(g)
        active[::3] = False
        order = sched.order_paths(
            range(ps.num_paths), sched.active_counts(active)
        )
        priorities = [sched.priority(p, active) for p in order]
        assert priorities == sorted(priorities, reverse=True)

    def test_disabled_keeps_given_order(self, scheduler):
        g, ps, dag, _ = scheduler
        sched = PathScheduler(ps, dag, enabled=False)
        ids = list(range(min(10, ps.num_paths)))[::-1]
        assert sched.order_paths(ids, None) == ids


class TestThreadBalancing:
    def test_loads_nearly_equal(self):
        edges = {i: (i % 7) + 1 for i in range(40)}
        buckets = balance_paths_to_threads(list(range(40)), edges, 8)
        loads = [sum(edges[p] for p in b) for b in buckets]
        assert max(loads) - min(loads) <= max(edges.values())

    def test_single_thread(self):
        edges = {0: 3, 1: 5}
        buckets = balance_paths_to_threads([0, 1], edges, 1)
        assert len(buckets) == 1
        assert sorted(buckets[0]) == [0, 1]

    def test_empty(self):
        assert balance_paths_to_threads([], {}, 4) == []

    def test_invalid_threads(self):
        with pytest.raises(SchedulingError):
            balance_paths_to_threads([0], {0: 1}, 0)

    def test_every_path_assigned_once(self):
        edges = {i: 2 for i in range(13)}
        buckets = balance_paths_to_threads(list(range(13)), edges, 4)
        flat = sorted(p for b in buckets for p in b)
        assert flat == list(range(13))
