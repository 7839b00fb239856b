"""Multi-tenant query serving over one shared preprocessed graph.

The serving layer turns the batch system into a service: many tenants
issue concurrent point queries (SSSP/BFS from a source, reachability
from a source set, personalized pagerank from a seed set) against one
:class:`~repro.serve.context.ServingContext` — a single path
decomposition + dependency DAG shared by every query. Same-algorithm
queries batch into one multi-source kernel — the algorithm's batch
kernel with a leading **query-lane** axis (:mod:`repro.kernels.base`) —
bit-identical per lane to sequential single-source runs; a
deterministic discrete-event admission loop
(:class:`~repro.serve.server.QueryServer`) provides bounded concurrency
and per-tenant fairness. See ``docs/serving.md``.
"""

from repro.serve.context import ServingContext
from repro.serve.query import (
    SERVE_ALGORITHMS,
    Query,
    QueryResult,
    generate_trace,
    make_query_program,
)
from repro.serve.server import QueryServer, ServeConfig, ServeReport
from repro.serve.solver import (
    KERNEL_LAUNCH_OVERHEAD_S,
    MultiSourceSolver,
    SolveResult,
    lane_digest,
)

__all__ = [
    "SERVE_ALGORITHMS",
    "Query",
    "QueryResult",
    "QueryServer",
    "ServeConfig",
    "ServeReport",
    "ServingContext",
    "MultiSourceSolver",
    "SolveResult",
    "KERNEL_LAUNCH_OVERHEAD_S",
    "generate_trace",
    "make_query_program",
    "lane_digest",
]
