"""Round-driver contract, held by every registry row that runs rounds.

The loop, the GPU-loss handler and the epilogue exist once
(:mod:`repro.model.rounds`); these cases pin the behaviour every engine
therefore shares, whatever its schedule.
"""

from dataclasses import replace

import pytest

from repro.algorithms import make_program
from repro.bench.runner import ENGINES, make_engine
from repro.errors import ConfigurationError, ConvergenceError, GPULostError
from repro.faults import (
    ComputeFault,
    FaultInjector,
    FaultPlan,
    RecoveryPolicy,
)

#: ``sequential`` has no rounds, hence no driver.
ROUND_ENGINES = [name for name, row in ENGINES.items() if row.family]


def run(name, spec, graph, max_rounds=None, **run_kwargs):
    engine = make_engine(name, spec)
    if max_rounds is not None:
        engine.config = replace(engine.config, max_rounds=max_rounds)
    return engine.run(graph, make_program("wcc", graph), **run_kwargs)


@pytest.mark.parametrize("name", ROUND_ENGINES)
class TestDriverContract:
    def test_round_budget_is_exact(self, name, medium_graph, test_machine):
        """Emptying the frontier on exactly round ``max_rounds`` is
        convergence; one round less is a structured error."""
        n = run(name, test_machine, medium_graph).rounds
        assert n > 1
        exact = run(name, test_machine, medium_graph, max_rounds=n)
        assert exact.converged and exact.rounds == n
        with pytest.raises(ConvergenceError) as info:
            run(name, test_machine, medium_graph, max_rounds=n - 1)
        assert info.value.rounds == n - 1
        assert info.value.active_vertices > 0
        assert info.value.last_max_delta > 0

    @pytest.mark.parametrize("policy", [None, RecoveryPolicy()])
    def test_resume_needs_a_durable_policy(
        self, name, policy, medium_graph, test_machine
    ):
        with pytest.raises(
            ConfigurationError,
            match="resume requires a recovery policy with durability",
        ):
            run(
                name, test_machine, medium_graph,
                recovery=policy, resume=True,
            )

    def test_spent_loss_budget_reraises_and_settles_the_spill(
        self, name, medium_graph, test_machine, monkeypatch
    ):
        managers = []
        build = RecoveryPolicy.make_checkpoint_manager

        def spy(policy, machine, client):
            managers.append(build(policy, machine, client))
            return managers[-1]

        monkeypatch.setattr(RecoveryPolicy, "make_checkpoint_manager", spy)
        plan = FaultPlan(compute_faults={1: ComputeFault(kill_gpu=1)})
        with pytest.raises(GPULostError) as info:
            run(
                name, test_machine, medium_graph,
                fault_injector=FaultInjector(plan),
                recovery=RecoveryPolicy(
                    max_gpu_loss_recoveries=0,
                    overlap_checkpoint_spill=True,
                ),
            )
        assert info.value.gpu_id == 1
        (manager,) = managers
        assert manager.records  # a spill was in flight when the GPU died
        assert manager._pending_spill_s == 0.0
