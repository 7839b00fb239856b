"""Correlated fault storms: generator determinism and the serve storm
contract — any seeded storm replayed twice yields byte-identical
``ServeReport.metrics()`` and serve digests, kills landing during a
replay and link down-then-up flaps included, and the server either
recovers to golden-identical digests or degrades/sheds with structured
errors. Never a hang, never an unstructured exception."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    TRANSIENT,
    FaultPlan,
    chaos_sweep,
    run_chaos_cell,
    run_serve_storm_cell,
)
from repro.graph.generators import scc_profile_graph, with_random_weights
from repro.gpu.config import GPUSpec, MachineSpec
from repro.serve.query import QUERY_STATUSES
from repro.serve.runner import run_serve_cell, serve_digest

SPEC = MachineSpec(
    num_gpus=2,
    gpu=GPUSpec(num_smxs=2, warp_slots_per_smx=2),
    transfer_batch_bytes=1 << 20,
)


pytestmark = pytest.mark.usefixtures("isolated_caches")


@pytest.fixture(scope="module")
def graph():
    return with_random_weights(
        scc_profile_graph(
            n=140, avg_degree=4.0, giant_scc_fraction=0.5,
            avg_distance=5.0, seed=7,
        ),
        seed=7,
    )


class TestStormGenerator:
    def test_same_seed_same_storm(self):
        a = FaultPlan.generate_storm(11, 4, kills=3, flaps=2)
        b = FaultPlan.generate_storm(11, 4, kills=3, flaps=2)
        assert a.compute_faults == b.compute_faults
        assert a.transfer_faults == b.transfer_faults
        assert a.sync_faults == b.sync_faults
        c = FaultPlan.generate_storm(12, 4, kills=3, flaps=2)
        assert a.compute_faults != c.compute_faults

    def test_kills_cycle_over_gpus_sparing_gpu0(self):
        plan = FaultPlan.generate_storm(5, 4, kills=6, flaps=0)
        kills = [
            f.kill_gpu
            for f in plan.compute_faults.values()
            if f.kill_gpu is not None
        ]
        assert len(kills) == 6
        assert 0 not in kills, "GPU 0 must survive every storm"
        assert set(kills) == {1, 2, 3}

    def test_kill_indices_are_distinct_and_spaced(self):
        plan = FaultPlan.generate_storm(
            5, 2, kills=4, first_kill_at=2, kill_spacing=4, flaps=0
        )
        indices = sorted(plan.compute_faults)
        assert len(indices) == len(set(indices)) == 4
        assert indices[0] >= 2

    def test_flap_windows_are_contiguous_transients(self):
        plan = FaultPlan.generate_storm(
            7, 2, kills=0, flaps=2, first_flap_at=3,
            flap_length=3, flap_spacing=40,
        )
        indices = sorted(plan.transfer_faults)
        assert len(indices) == 6
        assert all(
            plan.transfer_faults[i].kind == TRANSIENT for i in indices
        )
        # Two runs of three consecutive indices.
        assert indices[1] == indices[0] + 1
        assert indices[2] == indices[0] + 2
        assert indices[4] == indices[3] + 1
        assert indices[5] == indices[3] + 2

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(kills=-1), "kills"),
            (dict(flaps=-1), "flaps"),
            (dict(kill_spacing=0), "kill_spacing"),
            (dict(flap_spacing=0), "flap_spacing"),
            (dict(first_kill_at=-1), "offsets"),
            (dict(first_flap_at=-1), "offsets"),
        ],
    )
    def test_storm_knob_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            FaultPlan.generate_storm(0, 2, **kwargs)

    def test_duplicate_kill_index_rejected(self):
        with pytest.raises(ConfigurationError, match="same index"):
            FaultPlan.generate(
                0, 2, kill_schedule=[(1, 5), (1, 5)]
            )
        with pytest.raises(ConfigurationError, match="same index"):
            FaultPlan.generate(
                0, 2, kill_gpu=1, kill_at_round=3,
                kill_schedule=[(0, 3)],
            )

    def test_flap_knob_validation(self):
        with pytest.raises(ConfigurationError, match="link_flap_at"):
            FaultPlan.generate(0, 2, link_flap_at=-1)
        with pytest.raises(ConfigurationError, match="link_flap_length"):
            FaultPlan.generate(0, 2, link_flap_at=2, link_flap_length=0)


class TestEngineStormCells:
    def test_storm_cell_recovers_and_is_deterministic(self, graph):
        plan = FaultPlan.generate_storm(3, SPEC.num_gpus, kills=2, flaps=1)
        first = run_chaos_cell(
            graph, "bfs", plan, engine_name="digraph", machine=SPEC
        )
        again = run_chaos_cell(
            graph, "bfs", plan, engine_name="digraph", machine=SPEC
        )
        assert first.passed, first.detail
        assert first.gpu_failures >= 1
        assert first.trace_digest == again.trace_digest
        assert first.recovered_digest == again.recovered_digest

    def test_link_flap_survived_by_retry_budget(self, graph):
        plan = FaultPlan.generate(
            4, SPEC.num_gpus, link_flap_at=2, link_flap_length=3
        )
        cell = run_chaos_cell(
            graph, "bfs", plan, engine_name="digraph", machine=SPEC
        )
        assert cell.passed, cell.detail
        assert cell.transfer_retries >= 3, "the flap must really fire"
        assert cell.digest_match

    def test_storm_sweep_all_cells_pass(self, graph):
        results = chaos_sweep(
            graph,
            algorithms=["bfs"],
            engine_names=("digraph",),
            seeds=(3,),
            machine=SPEC,
            storm=True,
            plan_options=dict(kills=2, flaps=1, flap_length=2),
            include_serve=True,
            serve_storm_options=dict(kills=2, num_queries=16),
        )
        assert [c.engine for c in results].count("serve") == 1
        assert all(c.passed for c in results), [
            (c.label, c.detail) for c in results
        ]
        serve_cell = next(c for c in results if c.engine == "serve")
        assert serve_cell.algorithm == "serve-storm-mixed"
        assert serve_cell.faults_injected >= 1


    def test_no_recovery_reaches_the_serve_storm_cell(self, graph):
        """``disable_recovery`` turns batch replay off in the storm's
        serve cell as well: its kills surface as failed queries."""
        results = chaos_sweep(
            graph,
            algorithms=["bfs"],
            engine_names=("digraph",),
            seeds=(3,),
            machine=SPEC,
            storm=True,
            plan_options=dict(kills=2, flaps=1, flap_length=2),
            disable_recovery=True,
            include_serve=True,
            serve_storm_options=dict(kills=2, num_queries=16),
        )
        serve_cell = next(c for c in results if c.engine == "serve")
        assert not serve_cell.passed
        assert serve_cell.rounds_rolled_back == 0
        assert "replay disabled" in serve_cell.error


class TestServeStormContract:
    def test_full_replay_budget_recovers_identical_digests(self, graph):
        cell = run_serve_storm_cell(
            graph, seed=3, num_queries=16, kills=2, machine=SPEC
        )
        assert cell.passed, cell.detail
        assert cell.digest_match, "no overload knobs => golden-identical"
        assert cell.faults_injected >= 2
        assert "recovered identical digests" in cell.detail

    def test_overloaded_storm_degrades_deterministically(self, graph):
        cell = run_serve_storm_cell(
            graph, seed=3, num_queries=16, kills=2, machine=SPEC,
            deadline_ms=0.5, max_queue=8, brownout=True,
        )
        assert cell.passed, cell.detail
        assert cell.faults_injected >= 1
        assert cell.error is None or isinstance(cell.error, str)

    def test_exhausted_replay_budget_fails_structured(self, graph):
        """Kills spaced one launch apart overwhelm a replay budget of
        one: the batch aborts with a structured error, and the cell
        (no overload knobs, failed queries) correctly does not pass."""
        cell = run_serve_storm_cell(
            graph, seed=3, num_queries=16, kills=3,
            first_kill_at=2, kill_spacing=1, max_replays=1,
            machine=SPEC,
        )
        assert not cell.passed
        assert cell.error is not None
        assert "replay budget exhausted" in cell.error

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("overloaded", [False, True])
    def test_any_seeded_storm_replays_byte_identical(
        self, graph, seed, overloaded
    ):
        """The ISSUE-8 property: same seeded storm served twice =>
        byte-identical metrics and digests, every non-answered query
        carrying a structured error."""
        plan = FaultPlan.generate_storm(
            seed, SPEC.num_gpus, kills=2, first_kill_at=2,
            kill_spacing=2, flaps=1, flap_length=2,
        )
        knobs = dict(
            seed=seed, num_queries=16, machine=SPEC, graph=graph,
            use_cache=False, fault_plan=plan, max_replays=3,
            replay_backoff_us=5.0,
        )
        if overloaded:
            knobs.update(
                deadline_ms=0.5, max_queue=8, brownout=True
            )
        first = run_serve_cell("mixed", "storm-prop", **knobs)
        again = run_serve_cell("mixed", "storm-prop", **knobs)
        assert first.metrics() == again.metrics()
        assert serve_digest(first) == serve_digest(again)
        for result in first.results:
            assert result.status in QUERY_STATUSES
            if result.status not in ("ok", "degraded"):
                assert result.error, (
                    f"query {result.query.query_id} ended "
                    f"{result.status!r} without a structured error"
                )

    def test_kill_during_replay_is_deterministic(self, graph):
        """Consecutive kill indices take out the original attempt AND
        its replay; the third attempt survives. Replayed twice the
        outcome is byte-identical."""
        plan = FaultPlan.generate(
            9, SPEC.num_gpus, kill_schedule=[(0, 2), (0, 3)]
        )
        knobs = dict(
            seed=9, num_queries=16, machine=SPEC, graph=graph,
            use_cache=False, fault_plan=plan, max_replays=3,
        )
        first = run_serve_cell("mixed", "double-kill", **knobs)
        again = run_serve_cell("mixed", "double-kill", **knobs)
        assert first.faults_injected == 2
        assert not first.failed
        assert any(r.attempts == 3 for r in first.results)
        assert first.metrics() == again.metrics()
        assert serve_digest(first) == serve_digest(again)
