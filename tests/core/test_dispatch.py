"""Unit tests for dependency-aware dispatch."""

import pytest

from repro.core.dependency import build_dependency_dag
from repro.core.dispatch import Dispatcher, _partition_dependency_edges
from repro.core.partitioning import decompose_into_paths
from repro.core.storage import PathStorage, build_partitions
from repro.gpu.config import GPUSpec, MachineSpec
from repro.gpu.machine import Machine
from repro.graph.generators import scc_profile_graph
from tests.core.dependency_oracle import dependency_product


@pytest.fixture
def setup():
    g = scc_profile_graph(200, 4.0, 0.5, 4.0, seed=1)
    ps = decompose_into_paths(g)
    dag = build_dependency_dag(ps)
    storage = PathStorage(ps, build_partitions(ps, dag, 40))
    machine = Machine(
        MachineSpec(
            num_gpus=3,
            gpu=GPUSpec(num_smxs=2, global_memory_bytes=1 << 20),
            transfer_batch_bytes=1 << 16,
        )
    )
    return storage, dag, machine, Dispatcher(storage, dag, machine)


class TestGroups:
    def test_groups_cover_partitions(self, setup):
        storage, _, _, dispatcher = setup
        covered = sorted(
            pid for g in dispatcher.groups for pid in g.partition_ids
        )
        assert covered == list(range(storage.num_partitions))

    def test_group_lookup(self, setup):
        storage, _, _, dispatcher = setup
        for group in dispatcher.groups:
            for pid in group.partition_ids:
                assert dispatcher.group_of_partition(pid) == group.group_id

    def test_layer_order_ascending(self, setup):
        dispatcher = setup[3]
        ordered = dispatcher.groups_in_layer_order()
        layers = [g.layer for g in ordered]
        assert layers == sorted(layers)

    def test_dependencies_cross_groups_acyclically(self, setup):
        storage, _, _, dispatcher = setup
        for pid in range(storage.num_partitions):
            for succ in dispatcher.partition_successors(pid):
                ga = dispatcher.groups[dispatcher.group_of_partition(pid)]
                gb = dispatcher.groups[dispatcher.group_of_partition(succ)]
                if ga.group_id != gb.group_id:
                    assert gb.layer >= ga.layer


class TestPartitionLift:
    def test_matches_the_per_edge_loop_in_iteration_order(self, setup):
        # The set's iteration order orders partition_successors(), and
        # through the prefetcher the order queued transfer times are
        # summed in — so the lift from the incidence must build the very
        # same set the per-edge loop over the explicit graph did, not just
        # an equal one.
        storage, dag, _, dispatcher = setup
        reference = set()
        dep = dependency_product(dag.writes, dag.reads, dag.num_paths)
        for pi in range(dep.num_vertices):
            a = storage.partition_of_path(pi)
            for pj in dep.successors(pi):
                b = storage.partition_of_path(int(pj))
                if a != b:
                    reference.add((a, b))
        assert len(reference) > 64  # large enough to have been resized
        lifted = _partition_dependency_edges(storage, dag)
        assert list(lifted) == list(reference)
        for a in range(storage.num_partitions):
            assert list(dispatcher.partition_successors(a)) == [
                dst for src, dst in reference if src == a
            ]


class TestPlacement:
    def test_every_partition_placed(self, setup):
        storage, _, machine, dispatcher = setup
        for pid in range(storage.num_partitions):
            assert 0 <= dispatcher.home_gpu[pid] < machine.num_gpus

    def test_load_not_collapsed_on_one_gpu(self, setup):
        storage, _, machine, dispatcher = setup
        load = [0] * machine.num_gpus
        for pid, gpu in dispatcher.home_gpu.items():
            load[gpu] += storage.partitions[pid].num_edges
        assert max(load) < 0.8 * sum(load)


class TestResidency:
    def test_first_load_charges_transfer(self, setup):
        storage, _, machine, dispatcher = setup
        t = dispatcher.ensure_resident(0, lambda pid: 0)
        assert t > 0
        assert machine.stats.h2d_bytes >= storage.partition_bytes(0)

    def test_second_load_free(self, setup):
        _, _, _, dispatcher = setup
        dispatcher.ensure_resident(0, lambda pid: 0)
        assert dispatcher.ensure_resident(0, lambda pid: 0) == 0.0

    def test_eviction_prefers_fewest_active_successors(self, setup):
        storage, _, machine, dispatcher = setup
        gpu = machine.gpus[dispatcher.current_gpu[0]]
        # shrink memory so two partitions cannot coexist
        gpu.global_memory._capacity = storage.partition_bytes(0) + 1
        same_gpu = [
            pid
            for pid in range(storage.num_partitions)
            if dispatcher.current_gpu[pid] == dispatcher.current_gpu[0]
        ]
        if len(same_gpu) < 2:
            pytest.skip("placement put one partition on this GPU")
        a, b = same_gpu[0], same_gpu[1]
        dispatcher.ensure_resident(a, lambda pid: 0)
        dispatcher.ensure_resident(b, lambda pid: 0)
        assert not gpu.global_memory.is_resident(a)
        assert machine.stats.d2h_bytes > 0  # write-back charged

    def test_prefetch_queues_on_streams(self, setup):
        storage, _, machine, dispatcher = setup
        pid = 1
        gpu_id = dispatcher.current_gpu[pid]
        dispatcher.ensure_resident(pid, lambda p: 0, overlap=True)
        assert machine.gpus[gpu_id].streams.pending_transfer_s > 0


class TestStealing:
    def test_idle_gpu_steals(self, setup):
        storage, _, machine, dispatcher = setup
        donor_gpu = dispatcher.current_gpu[0]
        donor_partitions = [
            pid
            for pid in range(storage.num_partitions)
            if dispatcher.current_gpu[pid] == donor_gpu
        ][:4]
        if len(donor_partitions) < 2:
            pytest.skip("not enough partitions on one GPU")
        assignment = dispatcher.balance_assignments(donor_partitions)
        busy_gpus = [g for g, pids in assignment.items() if pids]
        assert len(busy_gpus) >= 2
        assert dispatcher.steal_count > 0

    def test_stealing_charges_ring_transfer(self, setup):
        storage, _, machine, dispatcher = setup
        donor_gpu = dispatcher.current_gpu[0]
        donor_partitions = [
            pid
            for pid in range(storage.num_partitions)
            if dispatcher.current_gpu[pid] == donor_gpu
        ][:4]
        if len(donor_partitions) < 2:
            pytest.skip("not enough partitions on one GPU")
        before = machine.stats.p2p_bytes
        dispatcher.balance_assignments(donor_partitions)
        assert machine.stats.p2p_bytes > before

    def test_no_steal_when_balanced(self, setup):
        storage, _, _, dispatcher = setup
        one_each = []
        seen = set()
        for pid in range(storage.num_partitions):
            gpu = dispatcher.current_gpu[pid]
            if gpu not in seen:
                seen.add(gpu)
                one_each.append(pid)
        before = dispatcher.steal_count
        dispatcher.balance_assignments(one_each)
        assert dispatcher.steal_count == before
