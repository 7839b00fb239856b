"""Unit tests for the assembled machine."""

import pytest

from repro.errors import SimulationError
from repro.gpu.config import GPUSpec, MachineSpec
from repro.gpu.machine import Machine


@pytest.fixture
def machine():
    return Machine(
        MachineSpec(
            num_gpus=2,
            gpu=GPUSpec(
                num_smxs=2,
                threads_per_warp=4,
                warp_slots_per_smx=2,
                cycles_per_edge=10,
                work_split_threshold=1000,
            ),
            pcie_bandwidth_bytes_per_s=1e9,
            pcie_latency_s=1e-6,
            transfer_batch_bytes=1 << 20,
        )
    )


class TestTransfers:
    def test_blocking_transfer_charged(self, machine):
        t = machine.transfer("host", 0, 1000)
        assert t > 0
        assert machine.stats.transfer_time_s == pytest.approx(t)

    def test_overlapped_transfer_queued(self, machine):
        t = machine.transfer("host", 0, 1000, overlap_with=0)
        assert t == 0.0
        assert machine.gpus[0].streams.pending_transfer_s > 0

    def test_async_transfer_on_comm_channel(self, machine):
        machine.deliver_replica_batch(0, 1, 1000)
        assert machine.stats.async_comm_time_s > 0
        assert machine.stats.transfer_time_s == 0.0

    def test_flush_streams(self, machine):
        machine.transfer("host", 1, 500, overlap_with=1)
        flushed = machine.flush_streams()
        assert flushed > 0
        assert machine.stats.transfer_time_s == pytest.approx(flushed)


class TestCompute:
    def test_wall_is_slowest_gpu(self, machine):
        wall = machine.compute_round({0: [10] * 4, 1: [1]})
        slow = machine.gpus[0].seconds(0)  # just exercise the helper
        assert wall > 0

    def test_unknown_gpu(self, machine):
        with pytest.raises(SimulationError):
            machine.compute_round({7: [1]})

    def test_barrier_pads_idle_cycles(self, machine):
        free = Machine(machine.spec)
        free.compute_round({0: [50] * 4, 1: [1]}, barrier=False)
        barrier = Machine(machine.spec)
        barrier.compute_round({0: [50] * 4, 1: [1]}, barrier=True)
        assert (
            barrier.stats.total_thread_cycles
            > free.stats.total_thread_cycles
        )

    def test_compute_accumulates(self, machine):
        machine.compute_round({0: [5]})
        first = machine.stats.compute_time_s
        machine.compute_round({0: [5]})
        assert machine.stats.compute_time_s == pytest.approx(2 * first)

    def test_work_splitting_bounds_item(self):
        spec = MachineSpec(
            num_gpus=1,
            gpu=GPUSpec(
                num_smxs=1,
                threads_per_warp=4,
                warp_slots_per_smx=4,
                cycles_per_edge=1,
                work_split_threshold=10,
            ),
        )
        machine = Machine(spec)
        # One 100-edge item splits into 10 sub-items that fill warps.
        machine.compute_round({0: [100]})
        busy = machine.stats.busy_thread_cycles
        total = machine.stats.total_thread_cycles
        assert busy == 100
        assert busy / total > 0.5  # not serialized on one lane


class TestLoadAccounting:
    def test_load_global(self, machine):
        machine.load_global(0, nbytes=100, vertices=10)
        assert machine.stats.global_load_bytes == 100
        assert machine.stats.vertices_loaded == 10

    def test_load_invalid_gpu(self, machine):
        with pytest.raises(SimulationError):
            machine.load_global(9, 10)

    def test_negative_load(self, machine):
        with pytest.raises(SimulationError):
            machine.load_global(0, -1)

    def test_vertex_uses(self, machine):
        machine.note_vertex_uses(7)
        assert machine.stats.vertex_uses == 7
        with pytest.raises(SimulationError):
            machine.note_vertex_uses(-1)
