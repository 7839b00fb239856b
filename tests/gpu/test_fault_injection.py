"""Robustness: fault injection on the interconnect."""

import pytest

from repro.algorithms.pagerank import PageRank
from repro.errors import InterconnectFault
from repro.faults import (
    DEGRADE,
    PERMANENT,
    FaultInjector,
    FaultPlan,
    TransferFault,
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


def injector(transfer_faults=None):
    """A :class:`FaultInjector` that faults only the transfer calls
    ``transfer_faults`` maps (call index -> fault)."""
    return FaultInjector(FaultPlan(transfer_faults=transfer_faults or {}))


class TestInjectorMechanics:
    def test_nominal_when_injector_returns_none(self):
        ic = Interconnect(SPEC, MachineStats(), fault_injector=injector())
        baseline = Interconnect(SPEC, MachineStats())
        assert ic.transfer(HOST, 0, 1000) == baseline.transfer(HOST, 0, 1000)
        assert ic.faults_injected == 0

    def test_delay_factor_scales_time(self):
        slow = Interconnect(
            SPEC,
            MachineStats(),
            fault_injector=injector({0: TransferFault(DEGRADE, factor=4.0)}),
        )
        fast = Interconnect(SPEC, MachineStats())
        assert slow.transfer(HOST, 0, 1000) == pytest.approx(
            4.0 * fast.transfer(HOST, 0, 1000)
        )
        assert slow.faults_injected == 1

    def test_injector_may_fail_transfer(self):
        ic = Interconnect(
            SPEC,
            MachineStats(),
            fault_injector=injector({0: TransferFault(PERMANENT)}),
        )
        with pytest.raises(InterconnectFault):
            ic.transfer(HOST, 1, 10)


class TestEngineUnderFaults:
    def test_degraded_links_do_not_change_results(
        self, medium_graph, test_machine
    ):
        """A slow interconnect inflates time but never changes states."""
        import numpy as np

        from repro.core.engine import DiGraphEngine

        engine = DiGraphEngine(test_machine)
        clean = engine.run(medium_graph, PageRank())

        degraded_engine = DiGraphEngine(test_machine)
        pre = degraded_engine.preprocess(medium_graph)
        every_link_slow = FaultPlan.generate(
            seed=0,
            num_gpus=test_machine.num_gpus,
            degrade_rate=1.0,
            degrade_factor=10.0,
        )
        machine = Machine(
            test_machine, fault_injector=FaultInjector(every_link_slow)
        )
        machine.stats.preprocess_time_s = pre.modeled_seconds
        from repro.core.engine import _Run

        run = _Run(degraded_engine, machine, medium_graph, PageRank(), pre)
        assert run.execute()
        assert np.array_equal(run.states.values, clean.states)
        assert machine.stats.total_time_s >= clean.stats.total_time_s

    def test_dead_link_surfaces_cleanly(self, medium_graph, test_machine):
        """A failed transfer propagates as InterconnectFault, not as a
        silent wrong answer."""
        from repro.core.engine import DiGraphEngine, _Run

        engine = DiGraphEngine(test_machine)
        pre = engine.preprocess(medium_graph)
        machine = Machine(
            test_machine,
            fault_injector=injector({4: TransferFault(PERMANENT)}),
        )
        run = _Run(engine, machine, medium_graph, PageRank(), pre)
        with pytest.raises(InterconnectFault):
            run.execute()
