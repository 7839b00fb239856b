"""Non-vacuity: every fault kind is really injected, and without a
recovery policy each one is caught by an existing detection channel
(exception, conservation ledger, or the fixed-point oracle) rather than
vanishing silently."""

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRank
from repro.core.engine import DiGraphConfig, DiGraphEngine
from repro.errors import (
    ConvergenceError,
    GPULostError,
    TransientInterconnectFault,
    VerificationError,
)
from repro.faults import (
    CORRUPT,
    DEGRADE,
    DROP,
    TRANSIENT,
    ComputeFault,
    FaultInjector,
    FaultPlan,
    SyncFault,
    TransferFault,
    run_chaos_cell,
)
from repro.gpu.config import GPUSpec, MachineSpec
from repro.gpu.interconnect import HOST, Interconnect
from repro.gpu.machine import Machine
from repro.gpu.stats import MachineStats

SPEC = MachineSpec(
    num_gpus=2,
    gpu=GPUSpec(num_smxs=2, warp_slots_per_smx=2),
    transfer_batch_bytes=1 << 20,
)


def sync_plan(kind, count=64):
    """Fault every one of the first ``count`` replica flush attempts."""
    return FaultPlan(sync_faults={i: SyncFault(kind=kind) for i in range(count)})


class TestTransferInjection:
    def test_transient_raises_without_recovery(self):
        plan = FaultPlan(transfer_faults={0: TransferFault(kind=TRANSIENT)})
        injector = FaultInjector(plan)
        ic = Interconnect(SPEC, MachineStats(), fault_injector=injector)
        with pytest.raises(TransientInterconnectFault):
            ic.transfer(HOST, 0, 100)
        assert injector.faults_injected == 1
        assert [e.kind for e in injector.trace] == ["transfer_fault"]

    def test_degrade_scales_time(self):
        plan = FaultPlan(
            transfer_faults={0: TransferFault(kind=DEGRADE, factor=4.0)}
        )
        slow = Interconnect(
            SPEC, MachineStats(), fault_injector=FaultInjector(plan)
        )
        fast = Interconnect(SPEC, MachineStats())
        assert slow.transfer(HOST, 0, 1000) == pytest.approx(
            4.0 * fast.transfer(HOST, 0, 1000)
        )

    def test_counter_keyed_scheduling(self):
        """The plan targets the N-th call, not any particular endpoint."""
        plan = FaultPlan(transfer_faults={2: TransferFault(kind=TRANSIENT)})
        injector = FaultInjector(plan)
        ic = Interconnect(SPEC, MachineStats(), fault_injector=injector)
        ic.transfer(HOST, 0, 10)
        ic.transfer(0, 1, 10)
        with pytest.raises(TransientInterconnectFault):
            ic.transfer(1, 0, 10)
        assert injector.transfer_calls == 3


def wire_channel(machine, barrier):
    """(time on the schedule's channel, time on the other one)."""
    stats = machine.stats
    if barrier:
        return stats.transfer_time_s, stats.async_comm_time_s
    return stats.async_comm_time_s, stats.transfer_time_s


class TestSyncInjection:
    @pytest.mark.parametrize("barrier", [False, True])
    def test_drop_skips_receive_ledger(self, barrier):
        machine = Machine(SPEC, fault_injector=FaultInjector(sync_plan(DROP)))
        outcome = machine.deliver_replica_batch(0, 1, 512, barrier=barrier)
        assert outcome.status == "dropped"
        assert machine.stats.dropped_replica_batches == 1
        assert (0, 1) not in machine.stats.replica_pair_bytes
        # The lost batch still cost its wire time.
        assert wire_channel(machine, barrier) == (outcome.time_s, 0.0)
        assert outcome.time_s > 0

    @pytest.mark.parametrize("barrier", [False, True])
    def test_corrupt_arrives_with_poison(self, barrier):
        machine = Machine(
            SPEC, fault_injector=FaultInjector(sync_plan(CORRUPT))
        )
        outcome = machine.deliver_replica_batch(0, 1, 512, barrier=barrier)
        assert outcome.status == "corrupted"
        assert outcome.poison > 0
        assert machine.stats.corrupted_replica_batches == 1
        assert wire_channel(machine, barrier) == (outcome.time_s, 0.0)
        # The garbled payload still crossed the wire: conservation holds
        # on the async channel, the fixed-point oracle is the detection
        # channel instead. A barriered push credits no receive ledger.
        if barrier:
            assert machine.stats.replica_pair_bytes == {}
        else:
            assert machine.stats.replica_pair_bytes[(0, 1)] == 512

    def test_drop_without_recovery_breaks_conservation(
        self, medium_graph, test_machine
    ):
        """Engine-level: dropped batches leave a send/receive mismatch
        that the built-in conservation check flags (or the lost
        activations stall convergence — either way the run fails loudly).
        """
        engine = DiGraphEngine(
            test_machine, DiGraphConfig(verify_invariants=True)
        )
        with pytest.raises((VerificationError, ConvergenceError)):
            engine.run(
                medium_graph,
                PageRank(),
                fault_injector=FaultInjector(sync_plan(DROP, count=2000)),
            )

    def test_corrupt_without_recovery_poisons_states(
        self, medium_graph, test_machine
    ):
        clean = DiGraphEngine(test_machine).run(medium_graph, PageRank())
        injector = FaultInjector(sync_plan(CORRUPT, count=2000))
        faulted = DiGraphEngine(test_machine).run(
            medium_graph,
            PageRank(),
            strict_convergence=False,
            fault_injector=injector,
        )
        assert faulted.stats.corrupted_replica_batches > 0
        assert not np.array_equal(clean.states, faulted.states)

    def test_chaos_cell_fails_without_recovery(
        self, medium_graph, test_machine
    ):
        plan = FaultPlan.generate(3, 2, sync_drop_rate=0.5)
        result = run_chaos_cell(
            medium_graph,
            "pagerank",
            plan,
            machine=test_machine,
            disable_recovery=True,
        )
        assert result.faults_injected > 0
        assert not result.passed


class TestComputeInjection:
    def test_kill_without_recovery_raises(self, medium_graph, test_machine):
        plan = FaultPlan(compute_faults={0: ComputeFault(kill_gpu=1)})
        engine = DiGraphEngine(test_machine)
        with pytest.raises(GPULostError):
            engine.run(
                medium_graph, PageRank(), fault_injector=FaultInjector(plan)
            )

    def test_kill_event_filtered_once_dead(self):
        plan = FaultPlan(
            compute_faults={
                0: ComputeFault(kill_gpu=1),
                1: ComputeFault(kill_gpu=1),
            }
        )
        injector = FaultInjector(plan)
        assert injector.on_compute_round([0, 1]).kill_gpu == 1
        # GPU 1 already dead: the second event injects nothing.
        assert injector.on_compute_round([0]) is None
        assert injector.faults_injected == 1

    def test_straggler_inflates_time_only(self, medium_graph, test_machine):
        """A straggler with no recovery changes time, never states."""
        clean = DiGraphEngine(test_machine).run(medium_graph, PageRank())
        plan = FaultPlan(
            compute_faults={
                i: ComputeFault(slowdowns={0: 8.0}) for i in range(500)
            }
        )
        slow = DiGraphEngine(test_machine).run(
            medium_graph, PageRank(), fault_injector=FaultInjector(plan)
        )
        assert np.array_equal(clean.states, slow.states)
        assert slow.stats.compute_time_s > clean.stats.compute_time_s

    def test_slowdown_scales_compute_round(self):
        plan = FaultPlan(compute_faults={0: ComputeFault(slowdowns={0: 8.0})})
        slow = Machine(SPEC, fault_injector=FaultInjector(plan))
        base = Machine(SPEC)
        work = {0: [100] * 8}
        assert slow.compute_round(work) == pytest.approx(
            8.0 * base.compute_round(work)
        )


class TestLegacyInjector:
    def test_plain_callable_still_supported(self):
        machine = Machine(SPEC, fault_injector=lambda *a: 2.0)
        baseline = Machine(SPEC)
        assert machine.transfer(HOST, 0, 1000) == pytest.approx(
            2.0 * baseline.transfer(HOST, 0, 1000)
        )
        # No structured hooks: replica delivery and compute are nominal.
        assert machine._structured_injector is None
        assert machine.deliver_replica_batch(0, 1, 64).status == "delivered"
