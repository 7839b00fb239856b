"""Unit tests for the SMX lock-step warp model: :func:`thread_costs`
prices a thread, :func:`price_launches` a launch on one SMX, and
``Machine.compute_round`` charges a GPU's launches to the stats."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gpu.config import GPUSpec, MachineSpec
from repro.gpu.machine import Machine
from repro.gpu.smx import price_launches, thread_costs


def make_spec(**kwargs):
    return GPUSpec(
        num_smxs=1,
        threads_per_warp=kwargs.pop("warp", 4),
        warp_slots_per_smx=kwargs.pop("slots", 2),
        cycles_per_edge=kwargs.pop("cpe", 10),
        cycles_per_atomic=kwargs.pop("cpa", 100),
    )


def launch(spec, work):
    """One SMX launch of ``work``: (cycles, busy, total thread-cycles)."""
    costs = thread_costs(spec, np.asarray(work, dtype=np.int64))
    (cycles,), total = price_launches(spec, costs, [0, costs.size])
    return cycles, int(costs.sum()), total


class TestThreadCost:
    def test_edge_cost(self):
        assert thread_costs(make_spec(), 5) == 50

    def test_atomic_cost(self):
        assert thread_costs(make_spec(), 2, atomics=3) == 20 + 300

    def test_negative_invalid(self):
        with pytest.raises(SimulationError):
            thread_costs(make_spec(), -1)
        with pytest.raises(SimulationError):
            thread_costs(make_spec(), np.array([3, 1]), np.array([0, -2]))


class TestLockStepWarps:
    def test_warp_pays_max_member(self):
        cycles, _, _ = launch(make_spec(warp=4, slots=1), [1, 1, 1, 8])
        assert cycles == 80  # max member = 8 edges x 10 cycles

    def test_balanced_warp_efficient(self):
        cycles, busy, total = launch(make_spec(warp=4, slots=1), [5, 5, 5, 5])
        assert busy == 200
        assert cycles == 50
        assert total == busy  # utilization 1.0

    def test_multiple_warps_use_slots(self):
        # 4 warps of cost 10 each: 2 slots -> ceil(40/2) = 20 cycles
        cycles, _, _ = launch(make_spec(warp=2, slots=2), [1] * 8)
        assert cycles == 20

    def test_heaviest_warp_lower_bound(self):
        # Warps of 100 and 10 cycles: 4 slots hold both at once.
        cycles, _, _ = launch(make_spec(warp=2, slots=4), [10, 10, 1, 1])
        assert cycles == 100

    def test_total_counts_resident_warps_only(self):
        cycles, _, total = launch(make_spec(warp=4, slots=2), [5])
        assert total == cycles * 4  # one partial warp, one warp wide

    def test_counts_are_python_ints(self):
        counts = launch(make_spec(), [3, 1, 4, 1, 5])
        assert all(type(x) is int for x in counts)

    def test_empty_work(self):
        machine = Machine(MachineSpec(num_gpus=1, gpu=make_spec()))
        assert machine.compute_round({0: []}) == 0.0
        assert machine.stats.busy_thread_cycles == 0
        assert machine.stats.total_thread_cycles == 0

    def test_atomic_counts_parallel(self):
        machine = Machine(MachineSpec(num_gpus=1, gpu=make_spec()))
        with pytest.raises(SimulationError):
            machine.compute_round({0: [1, 2]}, {0: [1]})


def one_gpu(**kwargs):
    return Machine(MachineSpec(num_gpus=1, gpu=make_spec(**kwargs)))


class TestOneGPURound:
    """Hand-worked rounds of ``Machine.compute_round`` on one GPU."""

    def test_atomics_stay_with_the_last_piece(self):
        # 20 edges split at 8: pieces 8, 8, 4, the atomics on the 4.
        spec = replace(make_spec(warp=4, slots=2), work_split_threshold=8)
        machine = Machine(MachineSpec(num_gpus=1, gpu=spec))
        wall = machine.compute_round({0: [20]}, {0: [3]})
        # Thread costs 80, 80, 40 + 300: one warp of the slowest.
        assert wall == 340 / spec.clock_hz
        assert machine.stats.busy_thread_cycles == 20 * 10 + 3 * 100
        assert machine.stats.total_thread_cycles == 340 * 4

    def test_wall_is_the_slowest_smx(self):
        # Sorted 9, 1, ... in blocks of one warp: SMX 0 runs the 9.
        machine = Machine(
            MachineSpec(num_gpus=1, gpu=replace(make_spec(), num_smxs=2))
        )
        wall = machine.compute_round({0: [1, 1, 1, 9, 1, 1, 1, 1]})
        assert wall == 90 / machine.spec.gpu.clock_hz
        assert machine.stats.busy_thread_cycles == 16 * 10
        assert machine.stats.total_thread_cycles == (90 + 10) * 4

    def test_arrays_price_like_lists(self):
        """What the batch kernel hands over: an integer array of
        degrees and a boolean array of changed flags."""
        work, changed = [4, 0, 7, 2, 2, 9], [1, 0, 0, 1, 0, 1]
        lists, arrays = one_gpu(), one_gpu()
        wall = lists.compute_round({0: work}, {0: changed})
        assert wall == arrays.compute_round(
            {0: np.asarray(work, dtype=np.int64)},
            {0: np.asarray(changed, dtype=bool)},
        )
        assert lists.stats.busy_thread_cycles == 24 * 10 + 3 * 100
        for field in ("busy_thread_cycles", "total_thread_cycles"):
            assert getattr(arrays.stats, field) == getattr(lists.stats, field)
            assert type(getattr(arrays.stats, field)) is int
