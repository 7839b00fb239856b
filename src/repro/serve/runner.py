"""Bench-facing entry point: run one serving cell end to end.

:func:`run_serve_cell` is to the serving layer what
:func:`repro.bench.runner.run_cell` is to batch cells: one memoized
call that loads (or accepts) a graph, builds/reuses a
:class:`~repro.serve.context.ServingContext`, generates the seeded
arrival trace, and runs the :class:`~repro.serve.server.QueryServer`.

Cache-poisoning note: serve cells are memoized in the **same** process
cache as batch cells (:data:`repro.bench.runner._CACHE`). Their keys
start with the literal ``"serve"`` (no engine has that name) and carry
the two frozen configs the cell is built from, so a serve cell can never
shadow a batch cell and two cells that differ only in a serving knob can
never alias.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.bench import runner as bench_runner
from repro.errors import ConfigurationError
from repro.faults.plan import ComputeFault, FaultPlan
from repro.gpu.config import SCALED_MACHINE, MachineSpec
from repro.knobs import Knob, field_values
from repro.serve.context import ServingContext
from repro.serve.query import SERVE_ALGORITHMS, TraceSpec
from repro.serve.server import QueryServer, ServeConfig, ServeReport

#: Per-process context cache: building a ServingContext runs the full
#: path-decomposition preprocess, and every serve cell on the same
#: (graph, machine) must share it — that sharing *is* the tentpole
#: amortization, and it also keeps sweeps fast.
_CONTEXT_CACHE = {}


def serve_digest(report: ServeReport) -> str:
    """sha256 over all per-query (status, digest) pairs (query_id order).

    The status is part of the hash, so a clean run, a run with
    failures, and a run that shed or degraded the same queries can
    never produce the same digest — shed/degrade determinism is
    certified by digest equality across reruns exactly like answers.
    """
    h = hashlib.sha256()
    for result in report.results:
        h.update(
            f"{result.query.query_id}:{result.status}:"
            f"{result.digest or '-'}\n".encode()
        )
    return h.hexdigest()


def serving_context_for(
    graph_name: str,
    algorithm: str,
    scale: float,
    spec: MachineSpec,
    graph=None,
) -> ServingContext:
    """Build (or reuse) the shared context for a named dataset graph.

    Custom ``graph`` objects are keyed by identity — reusing the same
    graph instance across calls still shares one preprocess.
    """
    weighted_algo = "sssp" if algorithm in ("sssp", "mixed") else algorithm
    if graph is None:
        key = (graph_name, weighted_algo == "sssp", scale, spec)
        graph = bench_runner.load_graph(graph_name, weighted_algo, scale)
    else:
        key = (id(graph), spec)
    if key not in _CONTEXT_CACHE:
        _CONTEXT_CACHE[key] = ServingContext(
            graph, machine_spec=spec, graph_name=graph_name
        )
    return _CONTEXT_CACHE[key]


def clear_context_cache() -> None:
    """Forget shared contexts (tests use this for isolation)."""
    _CONTEXT_CACHE.clear()


#: The one serve-cell knob that is not a config field: it becomes a
#: hand-written one-kill :class:`~repro.faults.plan.FaultPlan`.
KILL_LAUNCH = Knob(
    "kill_launch", int, None, minimum=0, sweep=True,
    flag="--kill-launch",
    help="kill the GPU at this serve-wide kernel-launch index "
    "(default: no fault)",
)


def run_serve_cell(
    algorithm: str,
    graph_name: str,
    *,
    scale: float = bench_runner.DEFAULT_SCALE,
    seed: int = 0,
    num_gpus: Optional[int] = None,
    machine: Optional[MachineSpec] = None,
    graph=None,
    kill_launch: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    journal_path: Optional[str] = None,
    strict: bool = False,
    use_cache: bool = True,
    tenant_weights=None,
    **knobs,
) -> ServeReport:
    """Serve one deterministic trace; memoized like a batch cell.

    ``algorithm`` is one of :data:`~repro.serve.query.SERVE_ALGORITHMS`
    or ``"mixed"`` (the trace draws uniformly over all of them).
    ``knobs`` are the trace and server knobs by their external names and
    units — every :func:`~repro.knobs.knob` of
    :class:`~repro.serve.query.TraceSpec` (``num_queries``,
    ``tenant_count``, ``mean_interarrival_us``, ``arrival_model``,
    ``mean_think_time_us``) and of
    :class:`~repro.serve.server.ServeConfig` (``query_lanes``,
    ``deadline_ms``, ``max_queue``, ``replay_backoff_us``, ...). The two
    frozen configs built from them are the memo key, so two cells that
    differ in any knob never alias.

    ``kill_launch`` schedules a GPU kill at that serve-wide launch
    index; ``max_replays`` decides replay-to-correct-digests (the
    default, 1) vs clean structured failure (0). ``fault_plan``
    supplies a full correlated schedule instead (storms).
    ``journal_path`` points the server at a durable
    :class:`~repro.faults.store.ServeJournal`: completed batches are
    journaled, and a re-run over the same trace replays them instead of
    re-solving (crash-restart recovery). Custom inputs (``graph`` /
    ``tenant_weights`` / ``strict`` / ``fault_plan`` / ``journal_path``)
    bypass the memo cache.
    """
    if algorithm != "mixed" and algorithm not in SERVE_ALGORITHMS:
        raise ConfigurationError(
            f"algorithm {algorithm!r} is not servable; expected one of "
            f"{SERVE_ALGORITHMS + ('mixed',)}"
        )
    kill_launch = KILL_LAUNCH.convert(kill_launch)
    trace_fields, config_fields = field_values(knobs, TraceSpec, ServeConfig)
    trace_spec = TraceSpec(
        seed=seed,
        algorithms=SERVE_ALGORITHMS if algorithm == "mixed" else (algorithm,),
        tenant_weights=tenant_weights,
        **trace_fields,
    )
    config = ServeConfig(**config_fields)
    spec = machine or SCALED_MACHINE
    if num_gpus is not None:
        spec = spec.scaled(num_gpus)
    cacheable = use_cache and not (
        graph is not None
        or tenant_weights is not None
        or strict
        or fault_plan is not None
        or journal_path is not None
    )
    if cacheable:
        key = (
            "serve", algorithm, graph_name, scale, spec, kill_launch,
            trace_spec, config,
        )
        if key in bench_runner._CACHE:
            return bench_runner._CACHE[key]

    context = serving_context_for(
        graph_name, algorithm, scale, spec, graph=graph
    )
    trace = trace_spec.generate(context.graph.num_vertices)
    if fault_plan is None and kill_launch is not None:
        fault_plan = FaultPlan(
            compute_faults={kill_launch: ComputeFault(kill_gpu=0)}
        )
    server = QueryServer(
        context, config, fault_plan=fault_plan, journal_path=journal_path
    )
    report = server.serve(trace, strict=strict)
    if cacheable:
        bench_runner._CACHE[key] = report
    return report
