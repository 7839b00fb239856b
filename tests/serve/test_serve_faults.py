"""GPU loss mid-query: replay must reproduce the fault-free answers bit
for bit, and disabled replay must fail the batch cleanly with a
structured :class:`~repro.errors.QueryAbortedError` — never a wrong
answer. The serving layer also joins the chaos sweep
(:func:`repro.faults.run_serve_chaos_cell`)."""

import pytest

from repro.errors import ConfigurationError, QueryAbortedError
from repro.faults import (
    ComputeFault,
    FaultPlan,
    chaos_sweep,
    run_serve_chaos_cell,
)
from repro.graph.generators import scc_profile_graph, with_random_weights
from repro.gpu.config import GPUSpec, MachineSpec
from repro.serve import runner as serve_runner
from repro.serve.context import ServingContext
from repro.serve.query import generate_trace
from repro.serve.runner import run_serve_cell, serve_digest
from repro.serve.server import QueryServer, ServeConfig

SPEC = MachineSpec(
    num_gpus=2,
    gpu=GPUSpec(num_smxs=2, warp_slots_per_smx=2),
    transfer_batch_bytes=1 << 20,
)

KILL_AT = 4


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


@pytest.fixture(scope="module")
def context(graph):
    return ServingContext(graph, machine_spec=SPEC)


def serve_cell(graph, **kwargs):
    defaults = dict(
        scale=1.0, seed=3, num_queries=24, machine=SPEC,
        graph=graph, use_cache=False,
    )
    defaults.update(kwargs)
    return run_serve_cell("mixed", "serve-faults", **defaults)


class TestReplay:
    def test_replay_reproduces_clean_digests(self, graph):
        clean = serve_cell(graph)
        assert clean.launches > KILL_AT, "kill index must land mid-run"
        killed = serve_cell(graph, kill_launch=KILL_AT)
        assert killed.faults_injected == 1
        assert killed.replays > 0
        assert not killed.failed
        assert serve_digest(killed) == serve_digest(clean)
        assert any(r.replayed for r in killed.results)

    def test_replay_costs_modeled_time(self, graph):
        """The wasted partial solve is charged: the killed run burns
        strictly more GPU time than the clean run for the same work."""
        clean = serve_cell(graph)
        killed = serve_cell(graph, kill_launch=KILL_AT)
        assert killed.gpu_busy_s > clean.gpu_busy_s
        assert killed.metrics()["queries_replayed"] > 0

    def test_kill_past_end_is_clean(self, graph):
        clean = serve_cell(graph)
        unharmed = serve_cell(
            graph, kill_launch=clean.launches + 1000
        )
        assert unharmed.faults_injected == 0
        assert unharmed.replays == 0
        assert serve_digest(unharmed) == serve_digest(clean)


class TestCleanFailure:
    def test_no_replay_fails_batch_cleanly(self, graph):
        clean = serve_cell(graph)
        report = serve_cell(graph, kill_launch=KILL_AT, max_replays=0)
        assert report.failed
        assert serve_digest(report) != serve_digest(clean)
        for result in report.failed:
            assert result.digest is None
            assert "replay disabled" in result.error
        # Queries outside the dead batch still complete correctly.
        clean_digests = {
            r.query.query_id: r.digest for r in clean.results
        }
        for result in report.completed:
            assert result.digest == clean_digests[result.query.query_id]

    def test_strict_raises_structured_error(self, context):
        trace = generate_trace(
            context.graph.num_vertices, 16, seed=5, tenants=3,
            mean_interarrival_s=1e-6,
        )
        server = QueryServer(
            context,
            ServeConfig(max_replays=0),
            fault_plan=FaultPlan(
                compute_faults={2: ComputeFault(kill_gpu=0)}
            ),
        )
        with pytest.raises(QueryAbortedError) as excinfo:
            server.serve(trace, strict=True)
        err = excinfo.value
        assert err.query_ids, "aborted query ids must be named"
        assert err.tenants
        assert err.batch_id is not None
        assert err.launch_index is not None
        killed = {q.query_id for q in trace} & set(err.query_ids)
        assert killed == set(err.query_ids)

    def test_double_kill_aborts_replay(self, context):
        """The replay itself dies: consecutive kill indices take out
        the original launch and the replay's first launch."""
        trace = generate_trace(
            context.graph.num_vertices, 16, seed=5, tenants=3,
            mean_interarrival_s=1e-6,
        )
        server = QueryServer(
            context,
            ServeConfig(),
            fault_plan=FaultPlan(
                compute_faults={
                    2: ComputeFault(kill_gpu=0),
                    3: ComputeFault(kill_gpu=0),
                }
            ),
        )
        report = server.serve(trace)
        assert report.faults_injected == 2
        assert report.failed
        assert all(r.status == "aborted" for r in report.failed)
        assert all(
            "replay budget exhausted" in r.error
            for r in report.failed
        )
        assert all(r.attempts == 2 for r in report.failed)

    def test_bad_kill_launch_rejected(self, graph):
        with pytest.raises(ConfigurationError, match="kill_launch"):
            serve_cell(graph, kill_launch=-1)


class TestChaosSweepIntegration:
    def test_serve_chaos_cell_passes(self, graph):
        cell = run_serve_chaos_cell(
            graph, "mixed", kill_launch=KILL_AT, seed=3, machine=SPEC
        )
        assert cell.passed, cell.detail
        assert cell.engine == "serve"
        assert cell.digest_match
        assert cell.gpu_failures == 1
        assert cell.recovery_time_s > 0

    def test_serve_chaos_cell_non_vacuous(self, graph):
        """Replay disabled: the kill must surface, not pass silently."""
        cell = run_serve_chaos_cell(
            graph, "mixed", kill_launch=KILL_AT, seed=3,
            max_replays=0, machine=SPEC,
        )
        assert not cell.passed
        assert not cell.digest_match
        assert cell.error is not None

    def test_vacuous_kill_index_flagged(self, graph):
        cell = run_serve_chaos_cell(
            graph, "mixed", kill_launch=10**6, seed=3, machine=SPEC
        )
        assert not cell.passed
        assert "vacuous" in cell.detail

    def test_faulted_leg_error_fails_the_cell(self, graph, monkeypatch):
        """A structured error out of the faulted leg (here a batch abort
        the server let escape) is a failed cell, never a traceback."""
        serve = serve_runner.run_serve_cell

        def abort_faulted_leg(*args, **kwargs):
            if kwargs.get("kill_launch") is not None:
                raise QueryAbortedError("batch lost with its GPU")
            return serve(*args, **kwargs)

        monkeypatch.setattr(serve_runner, "run_serve_cell", abort_faulted_leg)
        cell = run_serve_chaos_cell(
            graph, "mixed", kill_launch=KILL_AT, seed=3, machine=SPEC
        )
        assert not cell.passed
        assert "QueryAbortedError" in cell.detail
        assert cell.error == "batch lost with its GPU"

    def test_chaos_sweep_includes_serve_cell(self, graph):
        """The serving layer rides the same sweep as the batch engines."""
        results = chaos_sweep(
            graph,
            algorithms=["bfs"],
            engine_names=("digraph",),
            seeds=(3,),
            machine=SPEC,
            plan_options=dict(kill_gpu=1, kill_at_round=0),
            include_serve=True,
            serve_kill_launch=KILL_AT,
        )
        engines = [cell.engine for cell in results]
        assert "serve" in engines
        assert all(cell.passed for cell in results), [
            (cell.label, cell.detail) for cell in results
        ]
