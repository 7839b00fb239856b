"""Point queries, tenants, and deterministic open-loop arrival traces.

A :class:`Query` is one tenant-issued point computation over the shared
graph: SSSP/BFS from a source vertex, reachability from a source set, or
personalized pagerank from a seed set. Queries carry no state — they are
hashable descriptions the server turns into
:class:`~repro.model.gas.VertexProgram` instances at dispatch time.

:func:`generate_trace` expands a seed into an **open-loop** arrival
trace: exponential interarrival times, weighted tenant choice, uniform
algorithm/source choice, all from one ``random.Random(seed)`` — the same
(seed, knobs) always produce byte-identical traces, which is what makes
``BENCH_serve.json`` reproducible and the fairness tests meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.algorithms.bfs import BFSLevels
from repro.algorithms.ppr import PersonalizedPageRank
from repro.algorithms.reachability import Reachability
from repro.algorithms.sssp import SSSP
from repro.errors import ConfigurationError
from repro.knobs import knob
from repro.model.gas import VertexProgram

#: Algorithms the serving layer batches into multi-source lane kernels.
SERVE_ALGORITHMS: Tuple[str, ...] = ("sssp", "bfs", "ppr", "reachability")


@dataclass(frozen=True)
class Query:
    """One point query: ``algorithm`` parameterized by ``params``.

    ``params`` is the source vertex tuple — a single vertex for
    sssp/bfs, a seed/source set for ppr/reachability. ``arrival_s`` is
    the open-loop arrival time on the virtual clock. ``deadline_s`` is
    the *relative* deadline: the answer is on time iff
    ``completion ≤ arrival + deadline_s`` (the boundary is inclusive —
    see :meth:`deadline_at`). ``None`` means no per-query deadline (the
    server's default, if any, applies).
    """

    query_id: int
    tenant: str
    algorithm: str
    params: Tuple[int, ...]
    arrival_s: float
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.algorithm not in SERVE_ALGORITHMS:
            raise ConfigurationError(
                f"algorithm {self.algorithm!r} is not servable; "
                f"expected one of {SERVE_ALGORITHMS}"
            )
        if not self.params:
            raise ConfigurationError("query needs at least one source")
        if self.algorithm in ("sssp", "bfs") and len(self.params) != 1:
            raise ConfigurationError(
                f"{self.algorithm} takes exactly one source, "
                f"got {len(self.params)}"
            )
        if self.arrival_s < 0:
            raise ConfigurationError("arrival_s must be non-negative")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError("deadline_s must be positive")

    def deadline_at(self, default_deadline_s: Optional[float]) -> Optional[float]:
        """Absolute deadline on the virtual clock, or ``None``.

        The per-query deadline wins over the server default. The
        boundary rule (tested in ``tests/serve/test_overload.py``): a
        query is **on time iff it completes at or before** this
        instant, and it is **admissible iff the current clock is at or
        before** this instant — so a query examined exactly at its
        deadline is still admitted, and an answer landing exactly at
        the deadline is not a miss.
        """
        rel = self.deadline_s if self.deadline_s is not None else default_deadline_s
        if rel is None:
            return None
        return self.arrival_s + rel


def make_query_program(query: Query) -> VertexProgram:
    """Instantiate the vertex program a query describes."""
    if query.algorithm == "sssp":
        return SSSP(source=query.params[0])
    if query.algorithm == "bfs":
        return BFSLevels(source=query.params[0])
    if query.algorithm == "ppr":
        return PersonalizedPageRank(seeds=query.params)
    if query.algorithm == "reachability":
        return Reachability(sources=query.params)
    raise ConfigurationError(f"unservable algorithm {query.algorithm!r}")


#: Terminal statuses a served query can end in.
#: ``ok``        — fully converged, digest certified against solo run.
#: ``degraded``  — brownout partial answer with a certified bound.
#: ``failed``    — aborted by a fault with replay disabled/forbidden.
#: ``aborted``   — retries exhausted under a fault storm.
#: ``shed``      — deterministically dropped by queue-bound shedding.
#: ``rejected``  — refused at admission (deadline already unmeetable).
QUERY_STATUSES: Tuple[str, ...] = (
    "ok", "degraded", "failed", "aborted", "shed", "rejected",
)

#: Statuses that carry an answer (a digest over final states).
ANSWERED_STATUSES: Tuple[str, ...] = ("ok", "degraded")


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one served query.

    ``status`` is one of :data:`QUERY_STATUSES`; non-answered queries
    carry the structured error message and have no digest. Latency is
    modeled (virtual clock): completion minus arrival, queue wait
    included. Degraded answers additionally carry their certificate:
    ``bound_kind`` (``"l1"``/``"upper"``/``"lower"``, see
    :data:`~repro.serve.solver.RESIDUAL_BOUND_KINDS`) and, for
    ``"l1"``, the certified ``residual_bound`` on the distance to the
    exact answer.
    """

    query: Query
    status: str
    digest: Optional[str]
    start_s: float
    completion_s: float
    batch_id: int
    lanes: int
    rounds: int
    replayed: bool = False
    error: Optional[str] = None
    attempts: int = 1
    bound_kind: Optional[str] = None
    residual_bound: Optional[float] = None
    deadline_missed: bool = False
    #: Partial state vector, kept **only** for degraded answers: an ok
    #: answer is exactly reproducible from its query, a partial one is
    #: not — the states *are* the deliverable the bound certifies
    #: (``verify_degraded_answer`` checks them against the digest and
    #: the exact solo run). Excluded from equality/repr.
    states: Optional[object] = field(
        default=None, compare=False, repr=False
    )

    @property
    def latency_s(self) -> float:
        return self.completion_s - self.query.arrival_s


@dataclass(frozen=True)
class QueryTemplate:
    """One not-yet-arrived query of a closed-loop session.

    ``think_s`` is the session's think time *before* issuing this
    query: the query arrives at ``previous terminal completion +
    think_s`` (or at ``think_s`` for the session's first query). The
    server materializes the :class:`Query` — with its arrival time —
    only when the session actually issues it.
    """

    query_id: int
    tenant: str
    algorithm: str
    params: Tuple[int, ...]
    think_s: float
    deadline_s: Optional[float] = None

    def materialize(self, arrival_s: float) -> Query:
        return Query(
            query_id=self.query_id,
            tenant=self.tenant,
            algorithm=self.algorithm,
            params=self.params,
            arrival_s=arrival_s,
            deadline_s=self.deadline_s,
        )


@dataclass(frozen=True)
class ClosedLoopTrace:
    """A closed-loop (think-time) workload: one session per tenant.

    Unlike the open-loop trace — where arrivals are a fixed timeline
    regardless of how slow the server is — a closed-loop session holds
    at most one query in flight: the next query is issued only after
    the previous one reaches a terminal state (any of
    :data:`QUERY_STATUSES`) plus the think time. Closed loops
    self-throttle under overload, which is exactly the contrast the
    ``overload_resilience`` experiment measures against open-loop
    floods.
    """

    sessions: Tuple[Tuple[QueryTemplate, ...], ...]

    @property
    def num_queries(self) -> int:
        return sum(len(s) for s in self.sessions)


def generate_trace(
    num_vertices: int,
    num_queries: int,
    seed: int,
    tenants: Union[int, Sequence[str]] = 4,
    mean_interarrival_s: float = 1e-5,
    algorithms: Sequence[str] = SERVE_ALGORITHMS,
    tenant_weights: Optional[Dict[str, float]] = None,
    seed_set_size: int = 2,
    arrival_model: str = "open",
    mean_think_time_s: float = 1e-4,
    deadline_s: Optional[float] = None,
) -> Union[Tuple[Query, ...], ClosedLoopTrace]:
    """Deterministic arrival trace of point queries.

    ``tenants`` is a count (named ``tenant-0..``) or explicit names;
    ``tenant_weights`` skews the per-query tenant choice (unnormalized,
    missing tenants weigh 1.0) — the fairness tests use this to model
    one tenant flooding the service. Multi-source algorithms draw
    ``seed_set_size`` distinct vertices per query.

    ``arrival_model`` selects open loop (default: a fixed exponential-
    interarrival timeline, returned as a ``Query`` tuple) or closed
    loop (``"closed"``: per-tenant sessions of
    :class:`QueryTemplate` with exponential think times drawn from
    ``mean_think_time_s``, returned as a :class:`ClosedLoopTrace`).
    ``deadline_s`` stamps a relative deadline on every query.
    """
    if num_vertices < 1:
        raise ConfigurationError("trace needs a non-empty graph")
    if num_queries < 1:
        raise ConfigurationError("num_queries must be >= 1")
    if mean_interarrival_s <= 0:
        raise ConfigurationError("mean_interarrival_s must be positive")
    if isinstance(tenants, int):
        if tenants < 1:
            raise ConfigurationError("need at least one tenant")
        tenant_names = tuple(f"tenant-{i}" for i in range(tenants))
    else:
        tenant_names = tuple(tenants)
        if not tenant_names:
            raise ConfigurationError("need at least one tenant")
        if len(set(tenant_names)) != len(tenant_names):
            raise ConfigurationError("tenant names must be unique")
    algorithms = tuple(algorithms)
    for algo in algorithms:
        if algo not in SERVE_ALGORITHMS:
            raise ConfigurationError(f"algorithm {algo!r} is not servable")
    if not algorithms:
        raise ConfigurationError("need at least one algorithm")
    if not 1 <= seed_set_size <= num_vertices:
        raise ConfigurationError(
            "seed_set_size must be in [1, num_vertices]"
        )

    if arrival_model not in ("open", "closed"):
        raise ConfigurationError(
            f"arrival_model must be 'open' or 'closed', got {arrival_model!r}"
        )
    if mean_think_time_s <= 0:
        raise ConfigurationError("mean_think_time_s must be positive")
    if deadline_s is not None and deadline_s <= 0:
        raise ConfigurationError("deadline_s must be positive")

    weights = [
        float((tenant_weights or {}).get(name, 1.0))
        for name in tenant_names
    ]
    if any(w <= 0 for w in weights):
        raise ConfigurationError("tenant weights must be positive")

    rng = random.Random(seed)
    if arrival_model == "closed":
        sessions: Dict[str, list] = {name: [] for name in tenant_names}
        for query_id in range(num_queries):
            think = rng.expovariate(1.0 / mean_think_time_s)
            tenant = rng.choices(tenant_names, weights=weights, k=1)[0]
            algorithm = algorithms[rng.randrange(len(algorithms))]
            if algorithm in ("sssp", "bfs"):
                params = (rng.randrange(num_vertices),)
            else:
                params = tuple(
                    sorted(rng.sample(range(num_vertices), seed_set_size))
                )
            sessions[tenant].append(
                QueryTemplate(
                    query_id=query_id,
                    tenant=tenant,
                    algorithm=algorithm,
                    params=params,
                    think_s=think,
                    deadline_s=deadline_s,
                )
            )
        return ClosedLoopTrace(
            sessions=tuple(
                tuple(sessions[name]) for name in tenant_names if sessions[name]
            )
        )

    queries = []
    clock = 0.0
    for query_id in range(num_queries):
        clock += rng.expovariate(1.0 / mean_interarrival_s)
        tenant = rng.choices(tenant_names, weights=weights, k=1)[0]
        algorithm = algorithms[rng.randrange(len(algorithms))]
        if algorithm in ("sssp", "bfs"):
            params = (rng.randrange(num_vertices),)
        else:
            params = tuple(
                sorted(rng.sample(range(num_vertices), seed_set_size))
            )
        queries.append(
            Query(
                query_id=query_id,
                tenant=tenant,
                algorithm=algorithm,
                params=params,
                arrival_s=clock,
                deadline_s=deadline_s,
            )
        )
    return tuple(queries)


@dataclass(frozen=True)
class TraceSpec:
    """The arguments of :func:`generate_trace` as one hashable record.

    What a serve cell's memo key and its sweep knobs are made of: the
    fields a cell can vary from outside are :func:`~repro.knobs.knob`
    declarations (external name, unit, CLI flag); :func:`generate_trace`
    itself validates the values when the trace is drawn.
    """

    num_queries: int = knob(
        int, 32, minimum=1, sweep=True, flag="--queries", flag_default=64,
        help="trace length (default: 64)",
    )
    seed: int = 0
    tenants: Union[int, Tuple[str, ...]] = knob(
        int, 4, name="tenant_count", minimum=1, sweep=True,
        flag="--tenants", help="tenant count (default: 4)",
    )
    mean_interarrival_s: float = knob(
        float, 10.0, name="mean_interarrival_us", scale=1e-6,
        positive=True, sweep=True, flag="--interarrival-us",
        help="mean open-loop interarrival time in microseconds "
        "(default: 10)",
    )
    algorithms: Tuple[str, ...] = SERVE_ALGORITHMS
    tenant_weights: Optional[Dict[str, float]] = None
    seed_set_size: int = 2
    arrival_model: str = knob(
        str, "open", choices=("open", "closed"), sweep=True,
        flag="--closed-loop", flag_sets="closed",
        help="closed-loop (think-time) arrival model: each tenant "
        "session keeps one query in flight instead of the open-loop "
        "timeline",
    )
    mean_think_time_s: float = knob(
        float, 100.0, name="mean_think_time_us", scale=1e-6,
        positive=True, sweep=True, flag="--think-us",
        help="mean think time between a session's queries with "
        "--closed-loop, in microseconds (default: 100)",
    )
    deadline_s: Optional[float] = None

    def generate(
        self, num_vertices: int
    ) -> Union[Tuple[Query, ...], ClosedLoopTrace]:
        return generate_trace(num_vertices, **vars(self))
