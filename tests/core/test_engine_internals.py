"""White-box tests for DiGraph engine internals: frontier selection,
owner assignment, deferred activation, and quiescence gating."""

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.core.engine import DiGraphConfig, DiGraphEngine, _Run
from repro.gpu.machine import Machine
from repro.graph.builder import from_edges
from repro.graph.generators import scc_profile_graph, directed_path


def make_run(graph, machine_spec, program=None, config=None):
    engine = DiGraphEngine(machine_spec, config)
    pre = engine.preprocess(graph)
    machine = Machine(machine_spec)
    return _Run(engine, machine, graph, program or PageRank(), pre)


@pytest.fixture
def medium_run(test_machine):
    graph = scc_profile_graph(150, 4.0, 0.5, 4.0, seed=41)
    return make_run(graph, test_machine)


class TestOwnerAssignment:
    def test_owner_is_downstream_most_writer(self, medium_run):
        run = medium_run
        replicas = run.pre.replicas
        dispatcher = run.dispatcher
        for v in range(run.graph.num_vertices):
            writers = replicas.writer_partitions(v)
            if not writers:
                continue
            owner = replicas.owner_partition(v)
            owner_layer = dispatcher.groups[
                dispatcher.group_of_partition(owner)
            ].layer
            for pid in writers:
                layer = dispatcher.groups[
                    dispatcher.group_of_partition(pid)
                ].layer
                assert owner_layer >= layer, (v, pid)


class TestFrontierSelection:
    def test_initial_frontier_is_lowest_layers(self, medium_run):
        run = medium_run
        runnable = run._select_runnable_partitions()
        assert runnable
        layers = {
            run.dispatcher.groups[
                run.dispatcher.group_of_partition(pid)
            ].layer
            for pid in runnable
        }
        # With advance off (default), every runnable group has inactive
        # predecessors only.
        for pid in runnable:
            gid = run.dispatcher.group_of_partition(pid)
            predecessors = run.tables.group_predecessors[gid]
            assert np.count_nonzero(run.group_active[predecessors]) == 0

    def test_advance_admits_blocked_groups(self, test_machine):
        graph = scc_profile_graph(150, 4.0, 0.5, 4.0, seed=41)
        eager = make_run(
            graph, test_machine, config=DiGraphConfig(advance_factor=8)
        )
        strict = make_run(
            graph, test_machine, config=DiGraphConfig(advance_factor=0)
        )
        assert len(eager._select_runnable_partitions()) >= len(
            strict._select_runnable_partitions()
        )

    def test_inactive_partitions_never_runnable(self, medium_run):
        run = medium_run
        for v in np.flatnonzero(run.states.active):
            run.deactivate(int(v))
        assert run._select_runnable_partitions() == []


class TestActivationBookkeeping:
    def test_partition_counts_track_active_vertices(self, medium_run):
        run = medium_run
        total = int(run.partition_active.sum())
        owned = sum(
            1
            for v in np.flatnonzero(run.states.active)
            if run.pre.replicas.owner_partition(int(v)) is not None
        )
        assert total == owned

    def test_deactivate_then_activate_roundtrip(self, medium_run):
        run = medium_run
        before = run.partition_active.copy()
        v = int(np.flatnonzero(run.states.active)[0])
        run.deactivate(v)
        run.activate([v])
        assert np.array_equal(run.partition_active, before)

    def test_remote_activation_deferred(self, medium_run):
        run = medium_run
        run._begin_wave()  # populate owner gpu map
        v = int(np.flatnonzero(run.states.active)[0])
        run.deactivate(v)
        owner_gpu = int(run._owner_gpu[v])
        run._processing_gpu = (owner_gpu + 1) % run.machine.num_gpus
        run.activate([v])
        run._processing_gpu = None
        assert not run.states.active[v]
        # Deferred entries are (producing_gpu, dependents); with the
        # wave's owner map they name the GPU pair whose replica batch
        # the activation rides on.
        producer = (owner_gpu + 1) % run.machine.num_gpus
        assert run._deferred_activations == [(producer, [v])]
        # Lost with its pair's batch; another pair's loss leaves it be.
        run._apply_deferred_activations({(producer, owner_gpu)})
        assert not run.states.active[v]
        run._deferred_activations = [(producer, [v])]
        run._apply_deferred_activations({(owner_gpu, producer)})
        assert run.states.active[v]

    def test_local_activation_immediate(self, medium_run):
        run = medium_run
        run._begin_wave()
        v = int(np.flatnonzero(run.states.active)[0])
        run.deactivate(v)
        run._processing_gpu = int(run._owner_gpu[v])
        run.activate([v])
        run._processing_gpu = None
        assert run.states.active[v]


class TestSparseWorkloads:
    def test_sssp_touches_few_partitions(self, test_machine):
        graph = scc_profile_graph(200, 4.0, 0.4, 8.0, seed=42)
        program = SSSP(source=0)
        result = DiGraphEngine(test_machine).run(graph, program)
        touched = len(result.stats.partition_processed)
        total = int(result.extras["num_partitions"])
        assert result.converged
        # Reachability-bounded: untouched partitions were never loaded.
        assert touched <= total

    def test_chain_converges_in_few_rounds(self, test_machine):
        # A single path: the walk propagates end to end within rounds
        # bounded by the band structure, far below the chain length.
        graph = directed_path(64)
        program = SSSP(source=0)
        result = DiGraphEngine(test_machine).run(graph, program)
        assert result.converged
        assert result.rounds < 32
