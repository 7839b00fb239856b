"""The table-driven partition pass: its tables against per-object
references, derived N(p) against the per-flip counters it replaced, the
write-through exactness argument, and the walk's skip rules one by
one."""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.algorithms.pagerank import PageRank
from repro.core.dependency import build_dependency_dag
from repro.core.engine import DiGraphConfig, DiGraphEngine, Preprocessed, _Run
from repro.core.paths import Path, PathSet
from repro.core.replicas import ReplicaTable
from repro.core.scheduling import balance_paths_to_threads
from repro.core.storage import PathStorage, build_partitions
from repro.gpu.config import SCALED_MACHINE
from repro.gpu.machine import Machine
from repro.graph.builder import from_edges
from repro.graph.generators import scc_profile_graph
from repro.model.state import StalenessView


# ----------------------------------------------------------------------
# thread balancing: the heap against the rule it replaced
# ----------------------------------------------------------------------
def balance_by_scan(path_ids, path_edges, num_threads):
    """``balance_paths_to_threads`` as it was: rescan every thread's load
    per path and take the first lightest."""
    buckets = [[] for _ in range(num_threads)]
    loads = [0] * num_threads
    ordered = sorted(
        range(len(path_ids)), key=lambda i: -path_edges[path_ids[i]]
    )
    for i in ordered:
        lightest = loads.index(min(loads))
        buckets[lightest].append(path_ids[i])
        loads[lightest] += path_edges[path_ids[i]]
    return [bucket for bucket in buckets if bucket]


@pytest.mark.parametrize("seed", range(25))
def test_heap_balancing_matches_the_scan_on_ties(seed):
    rng = random.Random(seed)
    num_paths = rng.randint(0, 120)
    # Few distinct weights, zero included, and thread counts on both
    # sides of the path count: nearly every choice is a tie.
    weights = [rng.randint(0, 3) for _ in range(num_paths)]
    path_ids = list(range(num_paths))
    rng.shuffle(path_ids)
    for num_threads in (1, 2, 7, 64, 256):
        assert balance_paths_to_threads(
            path_ids, weights, num_threads
        ) == balance_by_scan(path_ids, weights, num_threads)
        as_dict = dict(enumerate(weights))
        assert balance_paths_to_threads(
            path_ids, as_dict, num_threads
        ) == balance_by_scan(path_ids, as_dict, num_threads)


# ----------------------------------------------------------------------
# tables against the per-object code they replaced
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def preprocessed():
    graph = scc_profile_graph(260, 5.0, 0.6, 5.0, seed=9)
    engine = DiGraphEngine(
        SCALED_MACHINE, DiGraphConfig(target_edges_per_partition=60)
    )
    return graph, engine, engine.preprocess(graph)


class TestTablesMatchTheObjects:
    def test_path_tables(self, preprocessed):
        graph, _, pre = preprocessed
        paths = pre.execution_tables.paths
        path_set, dag = pre.path_set, pre.dag
        assert paths.sequences == [
            tuple(int(v) for v in p.vertices) for p in path_set
        ]
        assert paths.avg_degree.tolist() == [
            p.average_degree(graph) for p in path_set
        ]
        assert paths.layer.tolist() == [
            float(dag.layer_of_path(p.path_id)) for p in path_set
        ]
        assert paths.num_vertices.tolist() == [
            p.num_vertices for p in path_set
        ]
        occurrences = path_set.paths_of_vertex()
        assert list(
            zip(paths.incidence_vertex.tolist(), paths.incidence_path.tolist())
        ) == [
            (v, path_id)
            for v in range(graph.num_vertices)
            for path_id in occurrences.get(v, ())
        ]

    def test_partition_blocks(self, preprocessed):
        _, _, pre = preprocessed
        tables, storage = pre.execution_tables, pre.storage
        assert storage.num_partitions > 4
        for partition, block in zip(storage.partitions, tables.blocks):
            assert block.path_ids.tolist() == list(partition.path_ids)
            bounds = block.starts.tolist() + [block.vertices.size]
            for k, path_id in enumerate(partition.path_ids):
                assert np.array_equal(
                    block.vertices[bounds[k] : bounds[k + 1]],
                    storage.path_vertices(path_id),
                )
            assert block.lengths.tolist() == np.diff(bounds).tolist()
        assert tables.partition_vertex_slots.tolist() == [
            p.num_vertex_slots for p in storage.partitions
        ]

    def test_owners_are_the_per_vertex_rule(self, preprocessed):
        """``set_layer_aware_owners`` against the loop it replaced."""
        graph, engine, pre = preprocessed
        tables, replicas = pre.execution_tables, pre.replicas
        dispatcher = _run(engine, graph, pre).dispatcher
        for v in range(graph.num_vertices):
            writers = replicas.writer_partitions(v)
            owner = replicas.owner_partition(v)
            assert tables.owner_partition[v] == (-1 if owner is None else owner)
            if writers:
                assert owner == max(
                    writers,
                    key=lambda pid: (
                        dispatcher.groups[
                            dispatcher.group_of_partition(pid)
                        ].layer,
                        writers[pid],
                        -pid,
                    ),
                )

    def test_group_and_partition_neighbours(self, preprocessed):
        graph, engine, pre = preprocessed
        tables = pre.execution_tables
        dispatcher = _run(engine, graph, pre).dispatcher
        assert any(len(g.partition_ids) > 1 for g in dispatcher.groups)
        for pid in range(pre.storage.num_partitions):
            group = dispatcher.group_of_partition(pid)
            assert tables.group_of_partition[pid] == group
            assert tables.alone_in_group[pid] == (
                len(dispatcher.groups[group].partition_ids) == 1
            )
            assert tables.partition_predecessors[pid].tolist() == sorted(
                dispatcher.partition_predecessors(pid)
            )
            assert tables.partition_successors[pid].tolist() == sorted(
                dispatcher.partition_successors(pid)
            )
        for group in dispatcher.groups:
            expected = {
                dispatcher.group_of_partition(pred)
                for pid in group.partition_ids
                for pred in dispatcher.partition_predecessors(pid)
            } - {group.group_id}
            assert tables.group_predecessors[
                group.group_id
            ].tolist() == sorted(expected)


def _run(engine, graph, pre, program=None, machine=None):
    machine = machine or Machine(engine.spec)
    return _Run(engine, machine, graph, program or PageRank(), pre)


# ----------------------------------------------------------------------
# N(p) derived where Pri(p) is evaluated, against the per-flip counters
# ----------------------------------------------------------------------
def test_derived_active_counts_are_the_per_flip_counts():
    """``PathScheduler`` used to keep N(p) in a counter array bumped on
    every activation and deactivation. Flip vertices at random through
    the run's own ``_activate_now`` / ``deactivate``, keep those counters
    by hand, and at every step the two derivations — over the whole
    decomposition and over the partition block — must read the same, on
    a decomposition whose first path visits vertex 0 twice; so must the
    order ``Pri(p)`` puts the paths in."""
    run = hand_built_run(
        [(0, 1), (1, 2), (2, 0), (0, 3), (4, 1), (3, 4), (4, 5), (5, 0)],
        [(0, 1, 2, 0, 3), (4, 1), (3, 4, 5, 0)],
        6,
    )
    sequences = run.tables.paths.sequences
    assert sequences[0].count(0) == 2
    paths_of_vertex = [
        [p for p, vertices in enumerate(sequences) if v in vertices]
        for v in range(run.graph.num_vertices)
    ]
    active, scheduler, block = run.states.active, run.scheduler, run.tables.blocks[0]
    assert block.first_in_path.tolist() == [
        v not in vertices[:i]
        for path_id in block.path_ids.tolist()
        for vertices in [sequences[path_id]]
        for i, v in enumerate(vertices)
    ]
    per_flip = [0] * len(sequences)
    for v in np.flatnonzero(active).tolist():  # as ``reset_counts`` did
        for path_id in paths_of_vertex[v]:
            per_flip[path_id] += 1
    rng = random.Random(16)
    for _ in range(200):
        v = rng.randrange(run.graph.num_vertices)
        was_active = bool(active[v])
        if rng.random() < 0.5:
            run._activate_now(v)
        else:
            run.deactivate(v)
        if bool(active[v]) != was_active:  # as the per-flip hooks did
            for path_id in paths_of_vertex[v]:
                per_flip[path_id] += 1 if active[v] else -1
        assert scheduler.active_counts(active).tolist() == per_flip
        in_block = np.add.reduceat(
            active[block.vertices] & block.first_in_path,
            block.starts,
            dtype=np.int64,
        )
        assert in_block.tolist() == [per_flip[p] for p in block.path_ids]
        tables = run.tables.paths
        assert scheduler.order_paths(block.path_ids, in_block) == sorted(
            block.path_ids.tolist(),
            key=lambda p: (
                -(
                    scheduler.alpha * tables.avg_degree[p] * per_flip[p]
                    - tables.layer[p]
                ),
                p,
            ),
        )


# ----------------------------------------------------------------------
# (a) the write-through array is the view, turn by turn
# ----------------------------------------------------------------------
def turns_checked_against_the_view(monkeypatch):
    """Instrument ``_Run``: at the end of every GPU turn, the list the
    pass gathered from and wrote through must equal a fresh
    materialisation of that GPU's per-read view, element-wise. Returns
    the log of turns: (gpu, inside a multi-partition SCC?, updates,
    had the view moved since the wave began?)."""
    materialise = StalenessView.as_array
    wave_start, views = {}, {}
    begin_wave = _Run._begin_wave

    def views_and_wave_start_arrays(run):
        snapshot = run.states.copy_values()
        begin_wave(run)
        views.clear()
        views.update(
            {
                gpu: StalenessView(
                    run.states.values,
                    snapshot,
                    run._owner_gpu == gpu,
                    written_gpu=run._written_gpu,
                    written_stamp=run._written_stamp,
                    wave_stamp=run._wave_counter,
                    gpu_id=gpu,
                )
                for gpu in run.machine.live_gpu_ids()
            }
        )
        wave_start.clear()
        wave_start.update(
            {gpu: materialise(view) for gpu, view in views.items()}
        )
    gathered_from = {}
    process_partition = _Run._process_partition

    def recording(run, pid, gpu_id, reads):
        # One list per turn, shared by the turn's partitions.
        assert gathered_from.setdefault(gpu_id, reads) is reads
        return process_partition(run, pid, gpu_id, reads)

    turns = []
    run_turn = _Run._run_turn

    def checked_turn(run, gpu_id, pids):
        view = views[gpu_id]
        stale_at_wave_start = not np.array_equal(
            wave_start[gpu_id], materialise(view)
        )
        updates_before = run.machine.stats.vertex_updates
        run_turn(run, gpu_id, pids)
        written_through = gathered_from.pop(gpu_id)
        assert type(written_through) is list
        assert all(type(x) is float for x in written_through)
        assert np.array_equal(written_through, materialise(view))
        in_scc = any(not run.tables.alone_in_group[pid] for pid in pids)
        turns.append(
            (
                gpu_id,
                in_scc,
                run.machine.stats.vertex_updates - updates_before,
                stale_at_wave_start,
            )
        )

    monkeypatch.setattr(_Run, "_begin_wave", views_and_wave_start_arrays)
    monkeypatch.setattr(_Run, "_process_partition", recording)
    monkeypatch.setattr(_Run, "_run_turn", checked_turn)
    return turns


@pytest.mark.parametrize("algo", ["pagerank", "sssp", "wcc"])
def test_write_through_array_equals_the_view_after_every_turn(
    preprocessed, monkeypatch, algo
):
    """Four GPUs iterating one multi-partition SCC: at the end of every
    GPU turn the list the walk gathered from and wrote through equals a
    fresh materialisation of that GPU's per-read view, element-wise."""
    graph, engine, pre = preprocessed
    turns = turns_checked_against_the_view(monkeypatch)
    result = engine.run(graph, make_program(algo, graph), preprocessed=pre)
    assert result.converged
    # The run exercised what the argument is about: every GPU took
    # turns inside the multi-partition SCC that changed states ...
    assert {g for g, in_scc, updates, _ in turns if in_scc and updates} == {
        0, 1, 2, 3,
    }
    # ... and some turn started from a view that had already moved since
    # the wave began (an earlier GPU wrote a replica of a vertex this GPU
    # owns), so taking the list at wave start would have been wrong.
    assert any(stale for *_, stale in turns)


@pytest.mark.parametrize("algo", ["pagerank", "sssp", "wcc"])
def test_write_through_list_equals_the_view_in_the_vertex_centric_pass(
    preprocessed, monkeypatch, algo
):
    """The same, for DiGraph-t's per-vertex loop: it only ever writes
    vertices the turn's GPU owns, which read fresh to it."""
    graph, engine, pre = preprocessed
    engine = DiGraphEngine(
        engine.spec, replace(engine.config, use_path_execution=False)
    )
    turns = turns_checked_against_the_view(monkeypatch)
    result = engine.run(graph, make_program(algo, graph), preprocessed=pre)
    assert result.converged
    assert {g for g, _, updates, _ in turns if updates} == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# (b) the walk's skip rules
# ----------------------------------------------------------------------
TWO_GPUS = replace(SCALED_MACHINE, num_gpus=2)


def hand_built_run(edges, vertex_paths, num_vertices, program=None):
    """A ``_Run`` over an explicit decomposition in one partition, every
    vertex owned by GPU 0 until a test says otherwise."""
    graph = from_edges(edges, num_vertices=num_vertices)
    edge_id = {
        (src, int(dst)): eid
        for src in range(num_vertices)
        for eid, dst in zip(graph.out_edge_ids(src), graph.successors(src))
    }
    path_set = PathSet(
        graph,
        [
            Path(
                path_id=i,
                vertices=tuple(vs),
                edge_ids=tuple(edge_id[pair] for pair in zip(vs, vs[1:])),
            )
            for i, vs in enumerate(vertex_paths)
        ],
    )
    path_set.validate()
    dag = build_dependency_dag(path_set)
    storage = PathStorage(path_set, build_partitions(path_set, dag, 10 ** 6))
    assert storage.num_partitions == 1
    pre = Preprocessed(
        path_set=path_set,
        dag=dag,
        storage=storage,
        replicas=ReplicaTable(path_set, storage),
        modeled_seconds=0.0,
        wall_seconds=0.0,
    )
    engine = DiGraphEngine(TWO_GPUS)
    run = _run(engine, graph, pre, program)
    run._begin_wave()
    run._current_round = 1
    assert run._owner_gpu.tolist() == [0] * num_vertices
    return run


def give_to_other_gpu(run, vertices):
    run._owner_gpu[list(vertices)] = 1
    run._owner_gpu_list = run._owner_gpu.tolist()


def only_active(run, vertices):
    for v in range(run.graph.num_vertices):
        if v in vertices:
            run._activate_now(v)
        else:
            run.deactivate(v)


def one_sweep_only(run):
    """Take the pass out of quiescence mode, as inside a multi-partition
    SCC: one local iteration, at most one update per vertex and sweep."""
    run.tables = replace(
        run.tables, alone_in_group=np.zeros_like(run.tables.alone_in_group)
    )


def walk(run, gpu_id=0):
    writes = []
    run._walk_partition(0, gpu_id, run.states.values.tolist(), writes)
    return set(writes)


def remote_activations(run):
    """The deferred activations delivery would send, as (vertex,
    producing_gpu, owner_gpu)."""
    return [
        (v, gpu, run._owner_gpu_list[v])
        for gpu, dependents in run._deferred_activations
        for v in dependents
        if run._owner_gpu_list[v] not in (gpu, -1)
    ]


class TestSkipRules:
    def test_non_owner_replica_refines_but_does_not_deactivate(self):
        # One path 0 -> 1 -> 2 -> 3; GPU 0 walks it but GPU 1 owns 2.
        run = hand_built_run(
            [(0, 1), (1, 2), (2, 3)], [(0, 1, 2, 3)], 4,
            make_program("sssp", from_edges([(0, 1)]), source=0),
        )
        give_to_other_gpu(run, {2})
        only_active(run, {1, 2})
        changed = walk(run)
        # 1 consumed its activation; the change chained into 2, which
        # was refined on GPU 0 without consuming the activation its
        # owner GPU 1 still has to see; 3 was activated locally by 2's
        # change and consumed in the same walk.
        assert changed == {1, 2, 3}
        assert run.states.values.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert run.states.active.tolist() == [False, False, True, False]
        assert remote_activations(run) == [(2, 0, 1)]
        # With nothing upstream changing, the non-owner does not touch
        # the still-active vertex at all.
        applies = run.machine.stats.apply_calls
        assert walk(run) == set()
        assert run.machine.stats.apply_calls == applies
        assert run.states.active[2]

    def test_one_update_per_sweep_outside_quiescence(self):
        run = hand_built_run([(0, 1), (1, 2)], [(0, 1, 2)], 3)
        one_sweep_only(run)
        only_active(run, {1})
        run.states.values[0] = 3.0
        assert walk(run) == {1, 2}
        assert not run.states.active[1]
        applies = run.machine.stats.apply_calls
        # Re-activated within the same sweep with a new input waiting:
        # a second pass skips it — and whatever would chain from it —
        # and leaves it active.
        run.states.values[0] = 7.0
        run._activate_now(1)
        assert walk(run) == set()
        assert run.machine.stats.apply_calls == applies
        assert run.states.active[1]
        # The next sweep picks it up.
        run._current_round += 1
        assert walk(run) == {1, 2}
        assert not run.states.active[1]

    def test_quiescence_mode_updates_again_within_the_sweep(self):
        run = hand_built_run([(0, 1), (1, 2)], [(0, 1, 2)], 3)
        only_active(run, {1})
        run.states.values[0] = 3.0
        assert walk(run) == {1, 2}
        run.states.values[0] = 7.0
        run._activate_now(1)
        assert walk(run) == {1, 2}
        assert not run.states.active[1]

    def test_stamped_occurrence_resets_the_chain(self):
        # Two paths through vertex 1: 0 -> 1 -> 2 and 3 -> 1 -> 4. Both
        # tails belong to GPU 1, so GPU 0 reaches them only through the
        # in-path chain.
        run = hand_built_run(
            [(0, 1), (1, 2), (3, 1), (1, 4)], [(0, 1, 2), (3, 1, 4)], 5
        )
        one_sweep_only(run)
        give_to_other_gpu(run, {2, 4})
        only_active(run, {0, 1, 3})
        before = run.states.values.copy()
        changed = walk(run)
        # Whichever path runs first updates head, 1 and — by the chain —
        # its tail. On the other path the head changes too, but 1 was
        # already updated this iteration: that occurrence reuses the
        # fresh master state and *breaks the chain*, so the second tail
        # is not recomputed.
        assert run.machine.stats.apply_calls == 4
        assert {0, 1, 3} <= changed
        assert len(changed & {2, 4}) == 1
        untouched = ({2, 4} - changed).pop()
        assert run.states.values[untouched] == before[untouched]
        assert run._processed_stamp[untouched] != run._stamp_counter
        # 1 was re-activated by the second head after its update and,
        # being stamped, kept that activation for the next sweep.
        assert run.states.active[1]


# ----------------------------------------------------------------------
# (c) one memory, two views: the views cannot go stale silently
# ----------------------------------------------------------------------
def views_match_arrays(run):
    """Every view reads its array's memory: same owner, same content."""
    arrays = dict(
        run.vertex_arrays(),
        partition_active=run.partition_active,
        group_active=run.group_active,
        partition_was_active=run._partition_was_active,
    )
    assert sorted(run._views) == sorted(arrays)
    for name, array in arrays.items():
        assert run._views[name].obj is array
        assert run._views[name].tolist() == array.tolist()


def restores_checked(monkeypatch, method):
    """Wrap ``CheckpointManager.<method>``: the run's arrays must be
    the *same objects* before and after (restored in place, never
    rebound), and its views must read the restored content."""
    from repro.faults.checkpoint import CheckpointManager

    original = getattr(CheckpointManager, method)
    calls = []

    def checked(manager, *args):
        run = manager.client
        before = dict(run.vertex_arrays())
        result = original(manager, *args)
        after = run.vertex_arrays()
        assert before.keys() == after.keys()
        for name, array in before.items():
            assert after[name] is array
        views_match_arrays(run)
        calls.append(method)
        return result

    monkeypatch.setattr(CheckpointManager, method, checked)
    return calls


def test_arrays_keep_their_identity_across_an_in_run_rollback(
    preprocessed, monkeypatch
):
    from repro.faults import (
        ComputeFault, FaultInjector, FaultPlan, RecoveryPolicy,
    )

    graph, engine, pre = preprocessed
    calls = restores_checked(monkeypatch, "rollback")
    result = engine.run(
        graph,
        PageRank(),
        preprocessed=pre,
        fault_injector=FaultInjector(
            FaultPlan(compute_faults={2: ComputeFault(kill_gpu=1)})
        ),
        recovery=RecoveryPolicy(checkpoint_interval=2),
    )
    assert result.converged and result.stats.gpu_failures == 1
    assert calls == ["rollback"]


def test_arrays_keep_their_identity_across_a_resume_from_the_store(
    preprocessed, monkeypatch, tmp_path
):
    from repro.errors import InjectedCrashError
    from repro.faults import FaultInjector, RecoveryPolicy
    from repro.faults.chaos import crash_plan

    graph, engine, pre = preprocessed
    policy = RecoveryPolicy(
        checkpoint_interval=2, durability="durable", run_dir=str(tmp_path)
    )
    golden = engine.run(graph, PageRank(), preprocessed=pre)
    with pytest.raises(InjectedCrashError):
        engine.run(
            graph,
            PageRank(),
            preprocessed=pre,
            fault_injector=FaultInjector(
                crash_plan("round-boundary", crash_round=3)
            ),
            recovery=policy,
        )
    calls = restores_checked(monkeypatch, "resume_from_store")
    resumed = engine.run(
        graph, PageRank(), preprocessed=pre, recovery=policy, resume=True
    )
    assert calls == ["resume_from_store"]
    assert resumed.converged
    assert resumed.states.tobytes() == golden.states.tobytes()


def test_numpy_writes_between_two_walks_are_seen_through_the_views():
    """The hand-built run's arrays are written through NumPy — a state,
    an active flag, a sweep stamp — between two ``_walk_partition``
    calls; the second walk, which reads single elements through the
    views, acts on every one of them."""
    run = hand_built_run([(0, 1), (1, 2)], [(0, 1, 2)], 3)
    one_sweep_only(run)
    only_active(run, {1})
    run.states.values[0] = 3.0
    assert walk(run) == {1, 2}
    first = run.states.values.tolist()
    views_match_arrays(run)
    # A new input and a re-activation, written through the arrays ...
    run.states.values[0] = 7.0
    run.states.active[1] = True
    run.partition_active[0] += 1
    run.group_active[run.tables.group_of_partition[0]] += 1
    run._partition_was_active[0] = True
    # ... are both seen, but the sweep stamp still holds the vertex back:
    applies = run.machine.stats.apply_calls
    assert walk(run) == set()
    assert run.machine.stats.apply_calls == applies
    # Clearing the stamp through NumPy lets the walk through, and it
    # gathers the state NumPy wrote.
    run._sweep_stamp[:] = 0
    assert walk(run) == {1, 2}
    assert run.states.values.tolist() != first
    assert not run.states.active[1]
    views_match_arrays(run)
    assert [check.passed for check in run.invariant_checks()] == [True] * 3


# ----------------------------------------------------------------------
# (d) the activity-flip rule reports what the clamp used to hide
# ----------------------------------------------------------------------
def test_double_deactivation_raises_instead_of_clamping():
    from repro.errors import SimulationError

    run = hand_built_run([(0, 1), (1, 2)], [(0, 1, 2)], 3)
    only_active(run, {1})
    assert run.partition_active.tolist() == [1]
    # The counter loses the vertex behind the flag's back (what a second
    # deactivation of the same vertex amounts to) ...
    run.partition_active[0] = 0
    with pytest.raises(SimulationError, match="vertex 1 .* partition 0"):
        run.deactivate(1)
    # ... and the recount names the drift even when nothing underflows.
    run.partition_active[0] = 2
    failed = [c for c in run.invariant_checks() if not c.passed]
    assert [c.name for c in failed] == ["engine.activity-counters"]
    assert "partition_active" in failed[0].detail


def test_flips_keep_the_counters_equal_to_a_recount():
    """Random flips through the run's own ``_activate_now`` /
    ``deactivate`` on a multi-partition preprocess: after every flip the
    three counters equal a recount from the active flags."""
    graph = scc_profile_graph(120, 4.0, 0.5, 4.0, seed=3)
    engine = DiGraphEngine(
        SCALED_MACHINE, DiGraphConfig(target_edges_per_partition=40)
    )
    run = _run(engine, graph, engine.preprocess(graph))
    assert run.pre.storage.num_partitions > 3
    rng = random.Random(5)
    for _ in range(600):
        v = rng.randrange(graph.num_vertices)
        if rng.random() < 0.6:
            run.deactivate(v)
        else:
            run._activate_now(v)
        for have, want in zip(
            (run.partition_active, run._partition_was_active, run.group_active),
            run._count_activity(),
        ):
            assert np.array_equal(have, want)
