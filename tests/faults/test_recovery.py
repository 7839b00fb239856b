"""Recovery machinery: retries, resends, straggler re-dispatch,
checkpoint/rollback, and GPU-loss degradation."""

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRank
from repro.core.engine import DiGraphConfig, DiGraphEngine, _Run
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    GPULostError,
    PermanentInterconnectFault,
)
from repro.faults import (
    DROP,
    TRANSIENT,
    ComputeFault,
    FaultInjector,
    FaultPlan,
    RecoveryPolicy,
    SyncFault,
    TransferFault,
)
from repro.bench.runner import ALL_CHAOS_ENGINES, run_cell
from repro.gpu.config import SCALED_MACHINE, GPUSpec, MachineSpec
from repro.gpu.interconnect import HOST, Interconnect
from repro.gpu.machine import Machine
from repro.gpu.stats import MachineStats
from tests.faults.test_injection import wire_channel

SPEC = MachineSpec(
    num_gpus=2,
    gpu=GPUSpec(num_smxs=2, warp_slots_per_smx=2),
    transfer_batch_bytes=1 << 20,
)


def transient_plan(*indices):
    return FaultPlan(
        transfer_faults={i: TransferFault(kind=TRANSIENT) for i in indices}
    )


class TestPolicy:
    def test_backoff_schedule(self):
        policy = RecoveryPolicy(backoff_base_s=1e-3, backoff_multiplier=2.0)
        assert policy.backoff_s(1) == pytest.approx(1e-3)
        assert policy.backoff_s(3) == pytest.approx(4e-3)

    def test_backoff_attempt_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RecoveryPolicy().backoff_s(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_transfer_retries=-1),
            dict(backoff_base_s=-1.0),
            dict(backoff_multiplier=0.5),
            dict(max_sync_retries=-1),
            dict(straggler_timeout_factor=0.9),
            dict(max_gpu_loss_recoveries=-1),
            dict(checkpoint_interval=0),
            dict(checkpoint_interval=-3),
            dict(full_checkpoint_period=0),
            dict(redistribution_policy="bogus"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RecoveryPolicy(**kwargs)


class TestTransferRetry:
    def test_two_transients_then_success(self):
        policy = RecoveryPolicy()
        stats = MachineStats()
        ic = Interconnect(
            SPEC,
            stats,
            fault_injector=FaultInjector(transient_plan(0, 1)),
            recovery=policy,
        )
        nominal = Interconnect(SPEC, MachineStats())
        time_s = ic.transfer(HOST, 0, 1000)
        assert stats.transfer_retries == 2
        assert stats.retransferred_bytes == 2000
        assert stats.backoff_time_s == pytest.approx(
            policy.backoff_s(1) + policy.backoff_s(2)
        )
        # Time covers both wasted attempts, the backoffs, and the final
        # successful transfer.
        assert time_s > nominal.transfer(HOST, 0, 1000)
        assert stats.recovery_time_s > stats.backoff_time_s
        # The payload is counted once in the Fig.-12 traffic ledger.
        assert stats.h2d_bytes == 1000

    def test_escalates_to_permanent_when_exhausted(self):
        ic = Interconnect(
            SPEC,
            MachineStats(),
            fault_injector=FaultInjector(transient_plan(0, 1)),
            recovery=RecoveryPolicy(max_transfer_retries=1),
        )
        with pytest.raises(PermanentInterconnectFault):
            ic.transfer(HOST, 0, 1000)


@pytest.mark.parametrize("barrier", [False, True])
class TestSyncResend:
    def test_delivered_on_schedule_channel(self, barrier):
        machine = Machine(SPEC)
        outcome = machine.deliver_replica_batch(0, 1, 512, barrier=barrier)
        assert outcome.status == "delivered"
        assert outcome.time_s > 0
        assert wire_channel(machine, barrier) == (outcome.time_s, 0.0)
        # Only the async channel credits the receive ledger.
        expected = {} if barrier else {(0, 1): 512}
        assert machine.stats.replica_pair_bytes == expected

    def test_drop_resent_until_delivered(self, barrier):
        plan = FaultPlan(sync_faults={0: SyncFault(kind=DROP)})
        machine = Machine(
            SPEC,
            fault_injector=FaultInjector(plan),
            recovery=RecoveryPolicy(),
        )
        outcome = machine.deliver_replica_batch(0, 1, 512, barrier=barrier)
        assert outcome.status == "delivered"
        assert machine.stats.sync_retries == 1
        assert machine.stats.resent_sync_bytes == 512
        # Both wire attempts and the backoff land on one channel.
        assert machine.stats.backoff_time_s > 0
        assert wire_channel(machine, barrier) == (outcome.time_s, 0.0)
        # Receive ledger credited exactly once despite the resend (and
        # never on the barriered channel).
        expected = {} if barrier else {(0, 1): 512}
        assert machine.stats.replica_pair_bytes == expected

    def test_escalates_when_resends_exhausted(self, barrier):
        plan = FaultPlan(sync_faults={0: SyncFault(kind=DROP)})
        machine = Machine(
            SPEC,
            fault_injector=FaultInjector(plan),
            recovery=RecoveryPolicy(max_sync_retries=0),
        )
        with pytest.raises(PermanentInterconnectFault):
            machine.deliver_replica_batch(0, 1, 512, barrier=barrier)
        assert machine.stats.replica_pair_bytes == {}


class TestStragglerRedispatch:
    def test_redispatch_caps_straggler_time(self):
        plan = FaultPlan(
            compute_faults={0: ComputeFault(slowdowns={0: 100.0})}
        )
        policy = RecoveryPolicy(straggler_timeout_factor=4.0)
        machine = Machine(
            SPEC, fault_injector=FaultInjector(plan), recovery=policy
        )
        baseline = Machine(SPEC)
        work = {0: [100] * 8, 1: [100] * 8}
        base_wall = baseline.compute_round(work)
        wall = machine.compute_round(work)
        assert machine.stats.stragglers_detected == 1
        assert machine.stats.straggler_redispatches == 1
        # Capped at timeout (4x the peer median) + one re-execution.
        assert wall == pytest.approx(5.0 * base_wall)
        assert wall < 100.0 * base_wall
        assert machine.stats.recovery_time_s == pytest.approx(4.0 * base_wall)

    def test_no_redispatch_without_policy_flag(self):
        plan = FaultPlan(
            compute_faults={0: ComputeFault(slowdowns={0: 100.0})}
        )
        machine = Machine(
            SPEC,
            fault_injector=FaultInjector(plan),
            recovery=RecoveryPolicy(redispatch_stragglers=False),
        )
        baseline = Machine(SPEC)
        work = {0: [100] * 8, 1: [100] * 8}
        base_wall = baseline.compute_round(work)
        assert machine.compute_round(work) == pytest.approx(
            100.0 * base_wall
        )
        assert machine.stats.stragglers_detected == 0


class TestGPULoss:
    def test_kill_gpu_mechanics(self):
        machine = Machine(SPEC)
        machine.kill_gpu(1)
        machine.kill_gpu(1)  # idempotent
        assert machine.live_gpu_ids() == [0]
        assert machine.stats.gpu_failures == 1
        with pytest.raises(GPULostError):
            machine.transfer(HOST, 1, 100)
        with pytest.raises(GPULostError):
            machine.compute_round({1: [10]})

    def test_redistribute_dead_gpu(self, medium_graph, test_machine):
        engine = DiGraphEngine(test_machine)
        pre = engine.preprocess(medium_graph)
        machine = Machine(test_machine)
        run = _Run(engine, machine, medium_graph, PageRank(), pre)
        on_dead = [
            pid
            for pid, gpu in run.dispatcher.current_gpu.items()
            if gpu == 1
        ]
        assert on_dead  # both GPUs hold partitions before the kill
        machine.kill_gpu(1)
        moved = run.dispatcher.redistribute_dead_gpu(1)
        assert sorted(moved) == sorted(on_dead)
        assert set(run.dispatcher.current_gpu.values()) == {0}

    def test_redistribute_with_no_survivors(self, medium_graph, test_machine):
        engine = DiGraphEngine(test_machine)
        pre = engine.preprocess(medium_graph)
        machine = Machine(test_machine)
        run = _Run(engine, machine, medium_graph, PageRank(), pre)
        machine.kill_gpu(0)
        machine.kill_gpu(1)
        with pytest.raises(GPULostError):
            run.dispatcher.redistribute_dead_gpu(1)

    def test_engine_survives_kill_and_matches_clean_run(
        self, medium_graph, test_machine
    ):
        """A discrete program recovers bit-exactly after losing a GPU."""
        from repro.algorithms import make_program

        clean = DiGraphEngine(test_machine).run(
            medium_graph, make_program("wcc", medium_graph)
        )
        plan = FaultPlan(compute_faults={0: ComputeFault(kill_gpu=1)})
        result = DiGraphEngine(test_machine).run(
            medium_graph,
            make_program("wcc", medium_graph),
            fault_injector=FaultInjector(plan),
            recovery=RecoveryPolicy(),
        )
        assert result.converged
        assert result.stats.gpu_failures == 1
        assert result.stats.rounds_rolled_back >= 1
        assert result.stats.retransferred_bytes > 0
        assert np.array_equal(clean.states, result.states)

    def test_contraction_recovers_within_band(
        self, medium_graph, test_machine
    ):
        """PageRank on one fewer GPU reassociates float sums — the
        recovered fixed point lands inside the cross-engine band."""
        from repro.verify.oracle import equivalence_band, states_equivalent

        program = PageRank()
        clean = DiGraphEngine(test_machine).run(medium_graph, PageRank())
        plan = FaultPlan(compute_faults={0: ComputeFault(kill_gpu=1)})
        result = DiGraphEngine(test_machine).run(
            medium_graph,
            PageRank(),
            fault_injector=FaultInjector(plan),
            recovery=RecoveryPolicy(),
        )
        assert result.converged
        band = equivalence_band(program, medium_graph)
        assert states_equivalent(clean.states, result.states, band).passed

    def test_loss_budget_exhaustion_reraises(
        self, medium_graph, test_machine
    ):
        plan = FaultPlan(compute_faults={0: ComputeFault(kill_gpu=1)})
        with pytest.raises(GPULostError):
            DiGraphEngine(test_machine).run(
                medium_graph,
                PageRank(),
                fault_injector=FaultInjector(plan),
                recovery=RecoveryPolicy(max_gpu_loss_recoveries=0),
            )


class TestCheckpointRollback:
    def _run_with_manager(self, medium_graph, test_machine, **policy_kwargs):
        engine = DiGraphEngine(test_machine)
        pre = engine.preprocess(medium_graph)
        machine = Machine(
            test_machine, recovery=RecoveryPolicy(**policy_kwargs)
        )
        run = _Run(engine, machine, medium_graph, PageRank(), pre)
        assert run.checkpoints is not None
        return machine, run

    def test_rollback_restores_state_and_ledgers(
        self, medium_graph, test_machine
    ):
        machine, run = self._run_with_manager(medium_graph, test_machine)
        values = run.states.values.copy()
        active = run.states.active.copy()
        run.checkpoints.checkpoint(0)

        run.states.values[:] = -1.0
        run.states.active[:] = False
        run.partition_active[:] = 0
        run.sync_sent_bytes[(0, 1)] = 999
        machine.stats.replica_pair_bytes[(1, 0)] = 777
        run._deferred_activations.append((0, [1]))

        resume = run.checkpoints.rollback(0)
        assert resume == 0
        assert np.array_equal(run.states.values, values)
        assert np.array_equal(run.states.active, active)
        assert run.sync_sent_bytes == {}
        assert machine.stats.replica_pair_bytes == {}
        assert run._deferred_activations == []
        assert machine.stats.rounds_rolled_back == 1
        assert machine.stats.rollback_replay_rounds == 1

    def test_rollback_attributes_lost_time(self, medium_graph, test_machine):
        machine, run = self._run_with_manager(medium_graph, test_machine)
        run.checkpoints.checkpoint(0)
        machine.stats.compute_time_s += 2.5
        run.checkpoints.rollback(0)
        # Lost work since the checkpoint plus the survivors' state
        # reload, both attributed to recovery.
        assert machine.stats.recovery_time_s >= 2.5
        assert machine.stats.retransferred_bytes > 0
        # Work-time channels keep the aborted attempt (it really ran).
        assert machine.stats.compute_time_s >= 2.5

    def test_rollback_without_checkpoint_raises(
        self, medium_graph, test_machine
    ):
        from repro.errors import SimulationError

        _, run = self._run_with_manager(medium_graph, test_machine)
        assert not run.checkpoints.has_checkpoint
        with pytest.raises(SimulationError):
            run.checkpoints.rollback(0)

    def test_checkpoint_spill_is_charged(self, medium_graph, test_machine):
        machine, run = self._run_with_manager(medium_graph, test_machine)
        record = run.checkpoints.checkpoint(0)
        assert record.kind == "full"
        assert record.bytes_spilled > 0
        assert record.time_s > 0
        assert machine.stats.checkpoints_taken == 1
        assert machine.stats.checkpoint_bytes_spilled == record.bytes_spilled
        assert machine.stats.checkpoint_time_s == pytest.approx(
            record.time_s
        )

    def test_checkpoint_survives_repeated_rollback(
        self, medium_graph, test_machine
    ):
        """One checkpoint restores bit-exactly more than once (its
        scalars are handed out as private copies)."""
        machine, run = self._run_with_manager(medium_graph, test_machine)
        values = run.states.values.copy()
        run.checkpoints.checkpoint(0)
        for failed_round in (2, 3):
            run.states.values[:] = -1.0
            run.sync_sent_bytes[(0, 1)] = 999
            assert run.checkpoints.rollback(failed_round) == 0
            assert np.array_equal(run.states.values, values)
            assert run.sync_sent_bytes == {}
        assert machine.stats.rounds_rolled_back == 2
        # 2 completed rounds + the aborted one, then 3 + 1.
        assert machine.stats.rollback_replay_rounds == 3 + 4


class TestConvergenceErrorFields:
    def test_structured_fields_populated(self, medium_graph, test_machine):
        engine = DiGraphEngine(test_machine, DiGraphConfig(max_rounds=1))
        with pytest.raises(ConvergenceError) as excinfo:
            engine.run(medium_graph, PageRank())
        exc = excinfo.value
        assert exc.rounds == 1
        assert exc.active_vertices > 0
        assert exc.last_max_delta > 0
        assert "rounds=1" in str(exc)
        assert "active_vertices=" in str(exc)
        assert "last_max_delta=" in str(exc)


@pytest.mark.parametrize("algo", ["pagerank", "sssp", "wcc"])
@pytest.mark.parametrize("graph_name", ["webbase", "twitter"])
@pytest.mark.parametrize("engine_name", ALL_CHAOS_ENGINES)
def test_arming_recovery_changes_a_fault_free_run_only_by_checkpoints(
    engine_name, graph_name, algo
):
    """A fault-free run with a recovery policy armed computes the same
    run as with none, and is priced the same apart from its checkpoint
    spills: arming recovery moves no cost between channels."""
    cell = dict(scale=0.3, machine=SCALED_MACHINE, use_cache=False)
    plain = run_cell(engine_name, algo, graph_name, **cell)
    armed = run_cell(
        engine_name, algo, graph_name, recovery=RecoveryPolicy(), **cell
    )
    assert np.array_equal(armed.states, plain.states, equal_nan=True)
    assert armed.rounds == plain.rounds
    assert armed.stats.vertex_updates == plain.stats.vertex_updates
    assert armed.stats.edge_traversals == plain.stats.edge_traversals
    assert armed.stats.checkpoints_taken > 0
    assert armed.stats.total_time_s - armed.stats.checkpoint_time_s == (
        pytest.approx(plain.stats.total_time_s, rel=1e-9)
    )
