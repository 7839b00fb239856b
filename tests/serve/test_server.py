"""Admission-loop contracts: fairness under skew, bounded concurrency,
quota enforcement, deterministic reruns, and trace/config validation.

The scheduler is a deterministic discrete-event simulation, so every
assertion here is exact — no timing slack, no flaky thresholds.
"""

from collections import Counter, defaultdict

import pytest

from repro.bench.sweep import SweepConfig, canonical_bytes, run_sweep
from repro.errors import ConfigurationError
from repro.faults import ComputeFault, FaultPlan
from repro.graph.generators import scc_profile_graph, with_random_weights
from repro.gpu.config import GPUSpec, MachineSpec
from repro.serve.context import ServingContext
from repro.serve.query import Query, generate_trace
from repro.serve.runner import run_serve_cell, serve_digest
from repro.serve.server import QueryServer, ServeConfig

SPEC = MachineSpec(
    num_gpus=2,
    gpu=GPUSpec(num_smxs=2, warp_slots_per_smx=2),
    transfer_batch_bytes=1 << 20,
)

SERVE_TINY = {
    "mode": "serve",
    "engines": ["serve"],
    "algorithms": ["mixed"],
    "graphs": ["dblp"],
    "scale": 0.05,
    "seeds": [3],
    "knobs": {"query_lanes": [4], "num_queries": [24]},
}


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


def skewed_trace(context, seed, flood="tenant-0", weight=8.0):
    """One tenant floods the service ~8x harder than the other three."""
    return generate_trace(
        context.graph.num_vertices,
        num_queries=80,
        seed=seed,
        tenants=4,
        mean_interarrival_s=1e-6,
        tenant_weights={flood: weight},
    )


class TestFairness:
    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_no_tenant_starves_under_skew(self, context, seed):
        """With a per-tenant quota, the flooding tenant queues behind
        its own backlog while minority queries keep flowing: every
        query completes and no minority tenant ever waits as long as
        the flooder's own worst case."""
        trace = skewed_trace(context, seed)
        report = QueryServer(
            context,
            ServeConfig(query_lanes=4, max_concurrent=8, tenant_quota=2),
        ).serve(trace)
        assert not report.failed
        counts = Counter(q.tenant for q in trace)
        assert counts["tenant-0"] > 3 * max(
            v for t, v in counts.items() if t != "tenant-0"
        )
        flood_worst = report.per_tenant["tenant-0"]["latency_max_s"]
        for tenant, row in report.per_tenant.items():
            assert row["completed"] == row["queries"] == counts[tenant]
            if tenant != "tenant-0" and row["queries"]:
                assert row["latency_max_s"] < flood_worst

    def test_quota_bounds_every_batch(self, context):
        """No dispatched batch ever carries more than ``tenant_quota``
        queries of one tenant — the admission pool enforces it."""
        trace = skewed_trace(context, seed=2)
        quota = 2
        report = QueryServer(
            context,
            ServeConfig(
                query_lanes=8, max_concurrent=16, tenant_quota=quota
            ),
        ).serve(trace)
        per_batch = defaultdict(Counter)
        for result in report.results:
            per_batch[result.batch_id][result.query.tenant] += 1
        assert max(
            max(c.values()) for c in per_batch.values()
        ) <= quota

    def test_round_robin_mixes_tenants_in_batches(self, context):
        """Under even load, full batches draw from several tenants."""
        trace = generate_trace(
            context.graph.num_vertices, 64, seed=5, tenants=4,
            mean_interarrival_s=1e-6,
        )
        report = QueryServer(
            context, ServeConfig(query_lanes=8, tenant_quota=8)
        ).serve(trace)
        per_batch = defaultdict(set)
        for result in report.results:
            per_batch[result.batch_id].add(result.query.tenant)
        full = [
            b for b, tenants in per_batch.items()
            if sum(
                1 for r in report.results if r.batch_id == b
            ) == 8
        ]
        assert full, "expected at least one full 8-lane batch"
        assert any(len(per_batch[b]) > 1 for b in full)


class TestConcurrencyBounds:
    @pytest.mark.parametrize("max_concurrent", [1, 3, 8])
    def test_admission_never_exceeds_max_concurrent(
        self, context, max_concurrent
    ):
        trace = generate_trace(
            context.graph.num_vertices, 48, seed=6, tenants=4,
            mean_interarrival_s=1e-7,   # everything arrives at once
        )
        report = QueryServer(
            context,
            ServeConfig(
                query_lanes=4,
                max_concurrent=max_concurrent,
                tenant_quota=max_concurrent,
            ),
        ).serve(trace)
        assert report.peak_concurrency <= max_concurrent
        assert not report.failed

    def test_batches_never_exceed_query_lanes(self, context):
        trace = generate_trace(
            context.graph.num_vertices, 48, seed=6, tenants=4,
            mean_interarrival_s=1e-7,
        )
        report = QueryServer(
            context, ServeConfig(query_lanes=3)
        ).serve(trace)
        assert all(r.lanes <= 3 for r in report.results)

    def test_batches_are_single_algorithm(self, context):
        """Lane kernels only batch one program type; the scheduler must
        never mix algorithms into one dispatch."""
        trace = generate_trace(
            context.graph.num_vertices, 64, seed=8, tenants=4,
            mean_interarrival_s=1e-6,
        )
        report = QueryServer(context, ServeConfig()).serve(trace)
        algos_per_batch = defaultdict(set)
        for result in report.results:
            algos_per_batch[result.batch_id].add(
                result.query.algorithm
            )
        assert all(len(a) == 1 for a in algos_per_batch.values())

    def test_gpu_serializes_batches(self, context):
        """One modeled GPU: service intervals of distinct batches never
        overlap, and each starts no earlier than its queries arrived."""
        trace = generate_trace(
            context.graph.num_vertices, 40, seed=9, tenants=3,
            mean_interarrival_s=1e-6,
        )
        report = QueryServer(context, ServeConfig()).serve(trace)
        intervals = {}
        for result in report.results:
            intervals[result.batch_id] = (
                result.start_s, result.completion_s
            )
            assert result.start_s >= result.query.arrival_s
        spans = sorted(intervals.values())
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end


class TestDeterminism:
    def test_same_trace_same_digest(self, context):
        trace = generate_trace(
            context.graph.num_vertices, 32, seed=11, tenants=4,
            mean_interarrival_s=1e-6,
        )
        first = QueryServer(context, ServeConfig()).serve(trace)
        second = QueryServer(context, ServeConfig()).serve(trace)
        assert serve_digest(first) == serve_digest(second)
        assert first.metrics() == second.metrics()
        assert first.per_tenant == second.per_tenant

    def test_reused_server_restarts_its_fault_state(self, context):
        """A second ``serve()`` on the same server starts at launch 0:
        the scheduled kill fires again, and only once per call."""
        trace = generate_trace(
            context.graph.num_vertices, 32, seed=11, tenants=4,
            mean_interarrival_s=1e-6,
        )
        server = QueryServer(
            context, ServeConfig(max_replays=0),
            fault_plan=FaultPlan(compute_faults={4: ComputeFault(kill_gpu=0)}),
        )
        first = server.serve(trace)
        second = server.serve(trace)
        assert first.faults_injected == 1 and first.failed
        assert second == first
        assert serve_digest(second) == serve_digest(first)

    def test_serve_sweep_rerun_byte_identical(self):
        """Same trace + seed => byte-identical BENCH artifact bytes."""
        first = run_sweep(SweepConfig.from_dict(dict(SERVE_TINY)))
        again = run_sweep(SweepConfig.from_dict(dict(SERVE_TINY)))
        assert canonical_bytes(first) == canonical_bytes(again)

    def test_different_seed_different_trace(self, context):
        n = context.graph.num_vertices
        assert generate_trace(n, 16, seed=0) != generate_trace(
            n, 16, seed=1
        )
        assert generate_trace(n, 16, seed=0) == generate_trace(
            n, 16, seed=0
        )

    def test_memoized_cell_is_reused(self):
        first = run_serve_cell(
            "bfs", "dblp", scale=0.05, num_queries=12, seed=2
        )
        second = run_serve_cell(
            "bfs", "dblp", scale=0.05, num_queries=12, seed=2
        )
        assert second is first


class TestValidation:
    def test_duplicate_query_id_rejected(self, context):
        queries = [
            Query(3, "t", "bfs", (0,), 0.0),
            Query(3, "t", "bfs", (1,), 1e-6),
        ]
        with pytest.raises(ConfigurationError, match="duplicate query_id"):
            QueryServer(context, ServeConfig()).serve(queries)

    def test_query_source_arity(self):
        with pytest.raises(ConfigurationError, match="exactly one source"):
            Query(0, "t", "sssp", (1, 2), 0.0)
        with pytest.raises(ConfigurationError, match="at least one source"):
            Query(0, "t", "ppr", (), 0.0)

    def test_unservable_algorithm(self):
        with pytest.raises(ConfigurationError, match="not servable"):
            Query(0, "t", "pagerank", (0,), 0.0)

    def test_negative_arrival(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            Query(0, "t", "bfs", (0,), -1.0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(num_queries=0), "num_queries"),
            (dict(mean_interarrival_s=0.0), "positive"),
            (dict(tenants=0), "at least one tenant"),
            (dict(tenants=("a", "a")), "unique"),
            (dict(algorithms=()), "at least one algorithm"),
            (dict(algorithms=("wcc",)), "not servable"),
            (dict(tenant_weights={"tenant-0": -1.0}), "positive"),
            (dict(seed_set_size=0), "seed_set_size"),
        ],
    )
    def test_trace_validation(self, kwargs, match):
        defaults = dict(num_queries=4, seed=0)
        defaults.update(kwargs)
        with pytest.raises(ConfigurationError, match=match):
            generate_trace(50, **defaults)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(query_lanes=0),
            dict(max_concurrent=0),
            dict(tenant_quota=0),
            dict(max_rounds=0),
        ],
    )
    def test_serve_config_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServeConfig(**kwargs)

    def test_run_serve_cell_rejects_bad_algorithm(self):
        with pytest.raises(ConfigurationError, match="not servable"):
            run_serve_cell("pagerank", "dblp", scale=0.05)

    def test_empty_graph_rejected(self):
        from repro.graph.builder import from_edges

        with pytest.raises(ConfigurationError, match="empty graph"):
            ServingContext(
                from_edges([], num_vertices=0), machine_spec=SPEC
            )
