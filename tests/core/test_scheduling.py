"""Unit tests for Pri(p) scheduling and thread balancing."""

import functools
import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dependency import build_dependency_dag
from repro.core.partitioning import decompose_into_paths
from repro.core.scheduling import (
    PathScheduler,
    balance_paths_to_threads,
    pack_ordered,
)
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


# ----------------------------------------------------------------------
# the full heap as oracle for the capped heap and its P <= T closed form
# ----------------------------------------------------------------------
def balance_on_every_thread(path_ids, path_edges, num_threads):
    """``balance_paths_to_threads`` as it stood before PR 24: one bucket
    and one heap entry per *thread*, however few the paths."""
    buckets = [[] for _ in range(num_threads)]
    loads = [(0, thread) for thread in range(num_threads)]
    ordered = sorted(path_ids, key=lambda path_id: -path_edges[path_id])
    for path_id in ordered:
        load, lightest = loads[0]
        buckets[lightest].append(path_id)
        heapq.heapreplace(loads, (load + path_edges[path_id], lightest))
    return [bucket for bucket in buckets if bucket]


THREADS = 128  # SCALED_MACHINE's threads_per_smx: what every pass packs onto


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(0, 12),                      # P << T
        st.integers(THREADS - 2, THREADS + 2),   # P around T
        st.integers(THREADS + 1, 3 * THREADS),   # P > T
    ),
    # Few distinct weights: nearly every choice is a tie. ``min_work``
    # 0 puts zero-work paths in, 1 keeps them out (the closed form).
    st.integers(0, 1),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
def test_capped_heap_matches_the_full_heap(num_paths, min_work, max_work, rng):
    path_ids = list(range(num_paths))
    rng.shuffle(path_ids)
    work = [rng.randint(min_work, max_work) for _ in range(num_paths)]
    assert balance_paths_to_threads(
        path_ids, work, THREADS
    ) == balance_on_every_thread(path_ids, work, THREADS)


def test_zero_work_paths_stack_on_one_thread():
    """Fewer paths than threads, but the closed form (one path per
    thread) must not be taken: a zero-work path leaves its thread the
    lightest, so every later zero-work path joins it."""
    work = {0: 3, 1: 0, 2: 0, 3: 2, 4: 0}
    assert balance_paths_to_threads([0, 1, 2, 3, 4], work, THREADS) == [
        [0], [3], [1, 2, 4],
    ]
    assert balance_on_every_thread([0, 1, 2, 3, 4], work, THREADS) == [
        [0], [3], [1, 2, 4],
    ]


def test_one_path_per_thread_keeps_the_given_order_among_equals():
    """P <= T with positive work: stable descending order, one bucket
    each — ties stay in the scheduler's priority order."""
    work = {7: 2, 3: 5, 9: 2, 1: 5, 4: 2}
    assert balance_paths_to_threads([7, 3, 9, 1, 4], work, THREADS) == [
        [3], [1], [7], [9], [4],
    ]


# ----------------------------------------------------------------------
# one sort per local iteration: thread_order + pack_ordered against
# order_paths + balance_paths_to_threads
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def shared_scheduler(enabled):
    g = scc_profile_graph(150, 4.0, 0.5, 4.0, seed=1)
    ps = decompose_into_paths(g)
    return PathScheduler(ps, build_dependency_dag(ps), enabled=enabled)


@settings(max_examples=150, deadline=None)
@given(
    st.booleans(),
    st.one_of(
        st.integers(0, 12),
        st.integers(THREADS - 2, THREADS + 2),
        st.integers(THREADS + 1, 2 * THREADS),
    ),
    # Few distinct weights and counts: ties in work and in Pri(p).
    st.integers(0, 1),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_thread_order_is_the_packer_over_the_priority_order(
    enabled, num_paths, min_work, max_work, rng
):
    sched = shared_scheduler(enabled)
    total = sched._tables.num_vertices.size
    path_ids = np.array(
        rng.sample(range(total), min(num_paths, total)), dtype=np.int64
    )
    counts = np.array([rng.randint(0, 2) for _ in path_ids], dtype=np.int64)
    work = np.array(
        [rng.randint(min_work, max_work) for _ in range(total)]
    )
    ordered = sched.thread_order(path_ids, counts, work).tolist()
    expected = balance_paths_to_threads(
        sched.order_paths(path_ids, counts), work.tolist(), THREADS
    )
    assert pack_ordered(ordered, work.tolist(), THREADS) == expected
