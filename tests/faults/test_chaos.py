"""Chaos harness acceptance: recovered runs converge to the fault-free
golden state for every algorithm, and seeded runs are deterministic."""

import pytest

from repro.faults import (
    ALL_CHAOS_ENGINES,
    BASELINE_CHAOS_ENGINES,
    CHAOS_ENGINES,
    FaultInjector,
    FaultPlan,
    RecoveryPolicy,
    chaos_sweep,
    recovery_digest,
    run_chaos_cell,
)
from repro.graph.generators import scc_profile_graph
from repro.gpu.config import GPUSpec, MachineSpec
from repro.verify.oracle import ALL_ALGORITHMS

SPEC = MachineSpec(
    num_gpus=2,
    gpu=GPUSpec(num_smxs=2, warp_slots_per_smx=2),
    pcie_latency_s=1e-6,
    transfer_batch_bytes=1 << 20,
)

#: Transient interconnect faults + replica drops/corruptions + one GPU
#: death at the first round boundary — every mechanism exercised at once.
PLAN_OPTIONS = dict(
    transfer_fault_rate=0.05,
    sync_drop_rate=0.05,
    sync_corrupt_rate=0.05,
    straggler_rate=0.1,
    kill_gpu=1,
    kill_at_round=0,
)


@pytest.fixture(scope="module")
def chaos_graph():
    return scc_profile_graph(
        n=120, avg_degree=4.0, giant_scc_fraction=0.5,
        avg_distance=5.0, seed=42,
    )


class TestAcceptance:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_every_algorithm_recovers_to_golden(
        self, chaos_graph, algorithm
    ):
        plan = FaultPlan.generate(3, SPEC.num_gpus, **PLAN_OPTIONS)
        result = run_chaos_cell(
            chaos_graph, algorithm, plan, machine=SPEC
        )
        assert result.passed, result.detail
        assert result.faults_injected > 0
        assert result.gpu_failures == 1
        assert result.rounds_rolled_back >= 1

    @pytest.mark.parametrize("engine_name", CHAOS_ENGINES)
    def test_engine_variants_recover(self, chaos_graph, engine_name):
        plan = FaultPlan.generate(3, SPEC.num_gpus, **PLAN_OPTIONS)
        result = run_chaos_cell(
            chaos_graph, "pagerank", plan, engine_name=engine_name,
            machine=SPEC,
        )
        assert result.passed, result.detail

    @pytest.mark.parametrize("engine_name", BASELINE_CHAOS_ENGINES)
    def test_baseline_engines_recover(self, chaos_graph, engine_name):
        """The baselines join the sweep: same plans, same certification."""
        plan = FaultPlan.generate(3, SPEC.num_gpus, **PLAN_OPTIONS)
        result = run_chaos_cell(
            chaos_graph, "wcc", plan, engine_name=engine_name,
            machine=SPEC,
        )
        assert result.passed, result.detail
        assert result.gpu_failures == 1
        assert result.digest_match

    def test_unknown_engine_rejected(self, chaos_graph):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_chaos_cell(
                chaos_graph, "pagerank", FaultPlan(), engine_name="gunrock"
            )


class TestDigests:
    def test_digest_fields_populated_and_match_on_pass(self, chaos_graph):
        plan = FaultPlan.generate(3, SPEC.num_gpus, **PLAN_OPTIONS)
        result = run_chaos_cell(chaos_graph, "wcc", plan, machine=SPEC)
        assert result.passed, result.detail
        assert result.golden_digest and result.recovered_digest
        # wcc is discrete (band 0): digest equality IS bit-equality.
        assert result.digest_match
        assert result.golden_digest == result.recovered_digest
        assert result.golden_time_s > 0
        assert result.recovered_time_s > result.golden_time_s

    def test_state_digest_band_semantics(self):
        import numpy as np

        from repro.faults import state_digest

        a = np.array([1.0, 2.0, np.inf])
        b = np.array([1.0, 2.0 + 1e-12, np.inf])
        assert state_digest(a) != state_digest(b)  # raw bytes differ
        assert state_digest(a, band=1e-6) == state_digest(b, band=1e-6)
        c = np.array([1.0, 2.0, np.nan])
        assert state_digest(a, band=1e-6) != state_digest(c, band=1e-6)

    @pytest.mark.parametrize("engine_name", ["bulk-sync-vec"])
    def test_vectorized_recovers_to_scalar_golden(
        self, chaos_graph, engine_name
    ):
        """Faulted vectorized runs converge to the SCALAR sibling's
        golden state — the batch-kernel equivalence contract survives
        rollback and replay."""
        plan = FaultPlan.generate(3, SPEC.num_gpus, **PLAN_OPTIONS)
        result = run_chaos_cell(
            chaos_graph, "wcc", plan, engine_name=engine_name,
            machine=SPEC,
        )
        assert result.passed, result.detail
        assert result.digest_match


class TestCheckpointKnobs:
    @pytest.mark.parametrize("interval", [1, 2, 4])
    def test_interval_sweep_digests_hold(self, chaos_graph, interval):
        plan = FaultPlan.generate(3, SPEC.num_gpus, **PLAN_OPTIONS)
        result = run_chaos_cell(
            chaos_graph, "wcc", plan, machine=SPEC,
            recovery=RecoveryPolicy(checkpoint_interval=interval),
        )
        assert result.passed, result.detail
        assert result.digest_match
        assert result.checkpoints_taken >= 1
        assert result.checkpoint_bytes_spilled > 0
        assert result.checkpoint_time_s > 0
        assert result.rollback_replay_rounds >= 1

    def test_larger_interval_cheaper_checkpoints(self, chaos_graph):
        plan = FaultPlan.generate(3, SPEC.num_gpus, **PLAN_OPTIONS)
        by_interval = {}
        for interval in (1, 4):
            result = run_chaos_cell(
                chaos_graph, "wcc", plan, machine=SPEC,
                recovery=RecoveryPolicy(checkpoint_interval=interval),
            )
            assert result.passed, result.detail
            by_interval[interval] = result
        assert (
            by_interval[4].checkpoints_taken
            < by_interval[1].checkpoints_taken
        )
        assert (
            by_interval[4].checkpoint_bytes_spilled
            < by_interval[1].checkpoint_bytes_spilled
        )

    def test_incremental_reduces_spill(self, chaos_graph):
        plan = FaultPlan.generate(3, SPEC.num_gpus, **PLAN_OPTIONS)
        spilled = {}
        for incremental in (False, True):
            result = run_chaos_cell(
                chaos_graph, "wcc", plan, machine=SPEC,
                recovery=RecoveryPolicy(
                    checkpoint_interval=2,
                    incremental_checkpoints=incremental,
                ),
            )
            assert result.passed, result.detail
            spilled[incremental] = result.checkpoint_bytes_spilled
        assert spilled[True] < spilled[False]


class TestDeterminism:
    def test_identical_cells_identical_digests(self, chaos_graph):
        plan = FaultPlan.generate(3, SPEC.num_gpus, **PLAN_OPTIONS)
        first = run_chaos_cell(chaos_graph, "sssp", plan, machine=SPEC)
        second = run_chaos_cell(chaos_graph, "sssp", plan, machine=SPEC)
        assert first.trace_digest == second.trace_digest
        assert first.recovery_time_s == second.recovery_time_s

    def test_digest_covers_trace(self, chaos_graph):
        import numpy as np

        from repro.faults.injector import TraceEvent

        states = np.zeros(4)
        a = recovery_digest([TraceEvent.make("x", i=1)], states)
        b = recovery_digest([TraceEvent.make("x", i=2)], states)
        assert a != b
        assert a == recovery_digest([TraceEvent.make("x", i=1)], states)

    def test_injector_traces_replay_identically(self, chaos_graph):
        from repro.algorithms import make_program
        from repro.core.engine import DiGraphEngine
        from repro.faults import RecoveryPolicy

        plan = FaultPlan.generate(5, SPEC.num_gpus, **PLAN_OPTIONS)
        traces = []
        for _ in range(2):
            injector = FaultInjector(plan)
            DiGraphEngine(SPEC).run(
                chaos_graph,
                make_program("bfs", chaos_graph),
                fault_injector=injector,
                recovery=RecoveryPolicy(),
            )
            traces.append(tuple(injector.trace))
        assert traces[0] == traces[1]
        assert traces[0]  # the plan actually fired events


class TestSweep:
    def test_grid_shape_and_labels(self, chaos_graph):
        results = chaos_sweep(
            chaos_graph,
            algorithms=("bfs", "wcc"),
            engine_names=("digraph",),
            seeds=(0, 1),
            machine=SPEC,
            plan_options=dict(transfer_fault_rate=0.02),
        )
        assert len(results) == 4
        assert all(r.passed for r in results), [
            r.detail for r in results if not r.passed
        ]
        assert {r.seed for r in results} == {0, 1}
        assert "bfs/digraph/seed=0" in {r.label for r in results}


@pytest.mark.slow
class TestFuzzSweep:
    def test_randomized_plans_all_recover(self, chaos_graph):
        """Five seeds x all algorithms under aggressive fault rates."""
        results = chaos_sweep(
            chaos_graph,
            algorithms=ALL_ALGORITHMS,
            seeds=range(5),
            machine=SPEC,
            plan_options=dict(
                transfer_fault_rate=0.1,
                degrade_rate=0.05,
                sync_drop_rate=0.1,
                sync_corrupt_rate=0.1,
                straggler_rate=0.2,
                kill_gpu=1,
                kill_at_round=0,
            ),
        )
        failures = [r for r in results if not r.passed]
        assert not failures, [(r.label, r.detail) for r in failures]
