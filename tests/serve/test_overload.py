"""Overload-resilience contracts of the query server: the deadline
boundary rule (inclusive on both admission and completion), config
validation of the overload knobs, deterministic tenant-fair load
shedding, brownout certificates, the closed-loop arrival model, and
retry-with-backoff accounting.

Everything runs on the deterministic virtual clock, so the boundary
tests can pin *exact* float instants (a deadline equal to the completion
time, one ulp less, ...) with no timing slack.
"""

import math
from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.faults import ComputeFault, FaultPlan
from repro.graph.generators import scc_profile_graph, with_random_weights
from repro.gpu.config import GPUSpec, MachineSpec
from repro.serve.context import ServingContext
from repro.serve.query import ClosedLoopTrace, Query, generate_trace
from repro.serve.runner import serve_digest
from repro.serve.server import QueryServer, ServeConfig
from repro.serve.solver import residual_bound_kind
from repro.verify.serve import verify_degraded_answer

SPEC = MachineSpec(
    num_gpus=2,
    gpu=GPUSpec(num_smxs=2, warp_slots_per_smx=2),
    transfer_batch_bytes=1 << 20,
)

#: query_lanes=1, max_concurrent=1: one query executes at a time, so a
#: hand-written trace controls exactly what is backlogged when.
SERIAL = dict(query_lanes=1, max_concurrent=1, tenant_quota=1)


pytestmark = pytest.mark.usefixtures("isolated_caches")


@pytest.fixture(scope="module")
def context():
    graph = with_random_weights(
        scc_profile_graph(
            n=140, avg_degree=4.0, giant_scc_fraction=0.5,
            avg_distance=5.0, seed=7,
        ),
        seed=7,
    )
    return ServingContext(graph, machine_spec=SPEC)


def serve(context, trace, **cfg):
    return QueryServer(context, ServeConfig(**cfg)).serve(trace)


class TestDeadlineBoundary:
    """The boundary rule: on time iff ``completion <= deadline``,
    admissible iff ``now <= deadline`` — both inclusive."""

    def _solo_completion(self, context):
        probe = serve(context, [Query(0, "t", "sssp", (5,), 0.0)])
        return probe.results[0].completion_s

    def test_completion_exactly_at_deadline_is_on_time(self, context):
        c0 = self._solo_completion(context)
        query = Query(0, "t", "sssp", (5,), 0.0, deadline_s=c0)
        for policy in ("reject", "abort"):
            report = serve(context, [query], deadline_policy=policy)
            (result,) = report.results
            assert result.completion_s == c0
            assert result.status == "ok"
            assert not result.deadline_missed
            assert result in report.goodput
            assert report.metrics()["deadline_misses"] == 0

    def test_one_ulp_past_deadline_is_a_miss(self, context):
        c0 = self._solo_completion(context)
        late = Query(
            0, "t", "sssp", (5,), 0.0,
            deadline_s=math.nextafter(c0, 0.0),
        )
        report = serve(context, [late], deadline_policy="reject")
        (result,) = report.results
        assert result.status == "ok"          # late answer still delivered
        assert result.deadline_missed
        assert result not in report.goodput

        aborted = serve(context, [late], deadline_policy="abort")
        (result,) = aborted.results
        assert result.status == "aborted"     # client gone away
        assert result.digest is None
        assert "discarded" in result.error
        assert result.deadline_missed

    def _blocked_pair(self, context):
        """q1 sits in the backlog until q0's completion event admits it;
        returns (q0, q1, admission instant)."""
        q0 = Query(0, "a", "ppr", (1, 2), 0.0)
        q1 = Query(1, "b", "bfs", (3,), 1e-9)
        probe = serve(context, [q0, q1], **SERIAL)
        by_id = {r.query.query_id: r for r in probe.results}
        admit_at = by_id[0].completion_s
        assert by_id[1].start_s == admit_at, "q1 must wait behind q0"
        return q0, q1, admit_at

    @staticmethod
    def _rel_deadline(arrival, absolute):
        """Relative deadline whose float sum lands exactly on
        ``absolute`` (naive subtraction can be off by one ulp)."""
        rel = absolute - arrival
        while arrival + rel > absolute:
            rel = math.nextafter(rel, 0.0)
        while arrival + rel < absolute:
            rel = math.nextafter(rel, math.inf)
        assert arrival + rel == absolute
        return rel

    def test_examined_exactly_at_deadline_is_admitted(self, context):
        q0, q1, admit_at = self._blocked_pair(context)
        deadline = Query(
            1, "b", "bfs", (3,), 1e-9,
            deadline_s=self._rel_deadline(1e-9, admit_at),
        )
        assert deadline.deadline_at(None) == admit_at
        report = serve(context, [q0, deadline], **SERIAL)
        result = next(r for r in report.results if r.query.query_id == 1)
        assert result.status == "ok", "boundary admission must not reject"

    def test_one_ulp_past_deadline_is_rejected(self, context):
        q0, q1, admit_at = self._blocked_pair(context)
        rel = self._rel_deadline(1e-9, math.nextafter(admit_at, 0.0))
        hopeless = Query(1, "b", "bfs", (3,), 1e-9, deadline_s=rel)
        assert hopeless.deadline_at(None) < admit_at
        report = serve(context, [q0, hopeless], **SERIAL)
        result = next(r for r in report.results if r.query.query_id == 1)
        assert result.status == "rejected"
        assert result.digest is None
        assert "before admission" in result.error
        assert result.deadline_missed
        assert result.completion_s == admit_at  # refused, not served
        assert report.metrics()["queries_rejected"] == 1
        assert report.metrics()["deadline_misses"] == 1


class TestOverloadConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(deadline_s=0.0),
            dict(deadline_s=-1.0),
            dict(deadline_policy="drop"),
            dict(max_queue=0),
            dict(max_queue=-3),
            dict(max_replays=-1),
            dict(replay_backoff_s=-1e-6),
            dict(backoff_multiplier=0.9),
        ],
    )
    def test_bad_overload_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServeConfig(**kwargs)

    def test_valid_overload_knobs_accepted(self):
        cfg = ServeConfig(
            deadline_s=1e-3, deadline_policy="abort", max_queue=4,
            brownout=True, max_replays=0, replay_backoff_s=0.0,
            backoff_multiplier=1.0,
        )
        assert cfg.max_queue == 4

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(arrival_model="batch"), "arrival_model"),
            (dict(arrival_model="closed", mean_think_time_s=0.0), "think"),
            (dict(deadline_s=0.0), "positive"),
        ],
    )
    def test_trace_overload_knob_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            generate_trace(50, num_queries=4, seed=0, **kwargs)

    def test_query_deadline_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="deadline_s"):
            Query(0, "t", "bfs", (0,), 0.0, deadline_s=0.0)


class TestLoadShedding:
    def test_victim_selection_is_tenant_fair_oldest_shed_last(
        self, context
    ):
        """Hand-built arrival order pins the exact victim sequence:
        the flooding tenant sheds its own newest queries first, and
        once backlogs tie the flood tenant is still the victim — the
        light tenant's lone query survives."""
        trace = [
            Query(0, "a", "bfs", (0,), 0.0),      # executing
            Query(1, "a", "bfs", (1,), 1e-9),     # survives (oldest)
            Query(2, "a", "bfs", (2,), 2e-9),     # shed 3rd (tie-break)
            Query(3, "a", "bfs", (3,), 3e-9),     # shed 1st (newest)
            Query(4, "a", "bfs", (4,), 4e-9),     # shed 2nd (newest)
            Query(5, "b", "bfs", (5,), 5e-9),     # survives (light tenant)
        ]
        report = serve(context, trace, max_queue=2, **SERIAL)
        status = {r.query.query_id: r.status for r in report.results}
        assert status == {
            0: "ok", 1: "ok", 2: "shed", 3: "shed", 4: "shed", 5: "ok",
        }
        for result in report.shed:
            assert result.digest is None
            assert "shed" in result.error
        assert report.metrics()["queries_shed"] == 3

    def test_shedding_is_deterministic(self, context):
        trace = generate_trace(
            context.graph.num_vertices, 48, seed=6, tenants=4,
            mean_interarrival_s=1e-7,
        )
        first = serve(context, trace, max_queue=4, query_lanes=4)
        second = serve(context, trace, max_queue=4, query_lanes=4)
        assert first.shed, "the flood must actually overflow the queue"
        assert serve_digest(first) == serve_digest(second)
        assert first.metrics() == second.metrics()
        assert [r.query.query_id for r in first.shed] == [
            r.query.query_id for r in second.shed
        ]

    def test_flooding_tenant_sheds_its_own_flood(self, context):
        trace = generate_trace(
            context.graph.num_vertices, 60, seed=4, tenants=4,
            mean_interarrival_s=1e-7,
            tenant_weights={"tenant-0": 8.0},
        )
        report = serve(context, trace, max_queue=4, query_lanes=4)
        assert report.shed
        shed_by = Counter(r.query.tenant for r in report.shed)
        assert shed_by.most_common(1)[0][0] == "tenant-0"
        assert shed_by["tenant-0"] > len(report.shed) / 2

    def test_unbounded_queue_never_sheds(self, context):
        trace = generate_trace(
            context.graph.num_vertices, 48, seed=6, tenants=4,
            mean_interarrival_s=1e-7,
        )
        report = serve(context, trace)    # max_queue=None
        assert not report.shed
        assert len(report.answered) == len(trace)


class TestBrownout:
    @pytest.mark.parametrize(
        "algorithm", ["ppr", "sssp", "bfs", "reachability"]
    )
    def test_degraded_answers_carry_verifying_certificates(
        self, context, algorithm
    ):
        trace = generate_trace(
            context.graph.num_vertices, 10, seed=2, tenants=2,
            mean_interarrival_s=1e-7,
            algorithms=(algorithm,),
            deadline_s=1e-6,   # far below a full solve
        )
        report = serve(context, trace, brownout=True)
        assert report.degraded, "the tight deadline must force brownout"
        expected_kind = residual_bound_kind(algorithm)
        for result in report.degraded:
            assert result.bound_kind == expected_kind
            assert result.states is not None
            if expected_kind == "l1":
                assert result.residual_bound > 0
            check = verify_degraded_answer(context, result)
            assert check.passed, check.detail
        assert report.metrics()["queries_degraded"] == len(report.degraded)

    def test_certificate_oracle_is_not_vacuous(self, context):
        """Tampered states must fail the digest half of the check."""
        import dataclasses

        import numpy as np

        trace = generate_trace(
            context.graph.num_vertices, 6, seed=2, tenants=2,
            mean_interarrival_s=1e-7, algorithms=("ppr",),
            deadline_s=1e-6,
        )
        report = serve(context, trace, brownout=True)
        victim = report.degraded[0]
        forged = dataclasses.replace(
            victim, states=np.asarray(victim.states) + 1.0
        )
        assert not verify_degraded_answer(context, forged).passed
        not_degraded = dataclasses.replace(victim, status="ok")
        assert not verify_degraded_answer(context, not_degraded).passed

    def test_without_brownout_tight_deadlines_just_miss(self, context):
        trace = generate_trace(
            context.graph.num_vertices, 10, seed=2, tenants=2,
            mean_interarrival_s=1e-7, algorithms=("ppr",),
            deadline_s=1e-6,
        )
        report = serve(context, trace, brownout=False)
        assert not report.degraded
        assert report.metrics()["deadline_misses"] > 0


class TestClosedLoop:
    def make_trace(self, context, **kwargs):
        defaults = dict(
            num_queries=18, seed=9, tenants=3,
            arrival_model="closed", mean_think_time_s=1e-5,
        )
        defaults.update(kwargs)
        return generate_trace(context.graph.num_vertices, **defaults)

    def test_sessions_hold_one_query_in_flight(self, context):
        trace = self.make_trace(context)
        assert isinstance(trace, ClosedLoopTrace)
        report = serve(context, trace)
        assert len(report.results) == trace.num_queries
        assert not report.failed
        assert report.peak_concurrency <= len(trace.sessions)

    def test_think_time_chains_off_previous_terminal_event(self, context):
        trace = self.make_trace(context)
        report = serve(context, trace)
        by_id = {r.query.query_id: r for r in report.results}
        for session in trace.sessions:
            assert by_id[session[0].query_id].query.arrival_s == (
                session[0].think_s
            )
            for prev, nxt in zip(session, session[1:]):
                assert by_id[nxt.query_id].query.arrival_s == (
                    by_id[prev.query_id].completion_s + nxt.think_s
                )

    def test_shed_still_ticks_the_session_clock(self, context):
        """A shed query is a terminal event: its session must keep
        issuing, so no query of the trace ever goes missing."""
        trace = self.make_trace(context, mean_think_time_s=1e-7)
        report = serve(context, trace, max_queue=1, **SERIAL)
        assert report.shed, "the serial server must overflow max_queue=1"
        assert len(report.results) == trace.num_queries
        seen = {r.query.query_id for r in report.results}
        assert seen == {
            t.query_id for s in trace.sessions for t in s
        }

    def test_closed_loop_is_deterministic(self, context):
        trace = self.make_trace(context)
        first = serve(context, trace, max_queue=2, deadline_s=1e-3)
        second = serve(context, trace, max_queue=2, deadline_s=1e-3)
        assert serve_digest(first) == serve_digest(second)
        assert first.metrics() == second.metrics()


class TestRetryBackoff:
    def make_trace(self, context):
        return generate_trace(
            context.graph.num_vertices, 16, seed=5, tenants=3,
            mean_interarrival_s=1e-6,
        )

    def serve_with(self, context, trace, faults, **cfg):
        server = QueryServer(
            context,
            ServeConfig(**cfg),
            fault_plan=FaultPlan(
                compute_faults={
                    at: ComputeFault(kill_gpu=0) for at in faults
                }
            ),
        )
        return server.serve(trace)

    def test_backoff_delays_completion_but_not_busy_time(self, context):
        trace = self.make_trace(context)
        quiet = self.serve_with(
            context, trace, [2], max_replays=2, replay_backoff_s=0.0
        )
        backed = self.serve_with(
            context, trace, [2], max_replays=2, replay_backoff_s=1e-4
        )
        assert quiet.replays > 0 and backed.replays == quiet.replays
        assert serve_digest(backed) == serve_digest(quiet)
        assert backed.gpu_busy_s == quiet.gpu_busy_s
        assert backed.makespan_s - quiet.makespan_s == pytest.approx(
            1e-4, rel=1e-6
        )

    def test_backoff_grows_exponentially_per_attempt(self, context):
        """Two consecutive kills cost base*(1 + multiplier) of idle
        wall time; with the GPU saturated the makespan shifts by
        exactly that."""
        trace = self.make_trace(context)
        base, mult = 1e-4, 3.0
        quiet = self.serve_with(
            context, trace, [2, 3], max_replays=3, replay_backoff_s=0.0
        )
        backed = self.serve_with(
            context, trace, [2, 3], max_replays=3,
            replay_backoff_s=base, backoff_multiplier=mult,
        )
        assert not backed.failed
        assert serve_digest(backed) == serve_digest(quiet)
        assert backed.makespan_s - quiet.makespan_s == pytest.approx(
            base * (1.0 + mult), rel=1e-6
        )

    def test_survived_attempts_are_reported(self, context):
        trace = self.make_trace(context)
        report = self.serve_with(
            context, trace, [2, 3], max_replays=3, replay_backoff_s=1e-5
        )
        replayed = [r for r in report.results if r.replayed]
        assert replayed
        assert all(r.attempts == 3 for r in replayed)
        assert report.faults_injected == 2
