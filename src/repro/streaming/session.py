"""End-to-end streaming over an evolving graph on the DiGraph engine.

:class:`StreamingSession` ties the pieces together: it preprocesses the
initial graph once (Algorithm 1 + dependency DAG + partitions), runs the
algorithm cold, and then per :class:`~repro.streaming.mutations.MutationBatch`

1. applies the batch (:func:`~repro.streaming.mutations.apply_batch`),
2. repairs only the touched paths and patches the dependency DAG
   (:class:`~repro.streaming.repair.PathRepairer`) instead of re-running
   Algorithm 1,
3. plans the delta recompute (:func:`~repro.streaming.delta.plan_delta`)
   and warm-starts the engine from the prior ``V_val`` with only the
   affected vertices reactivated,
4. optionally certifies the incremental fixpoint against a from-scratch
   golden run (bit-exact for the discrete algorithms, tolerance-band for
   the contraction ones) and reports incremental vs full-rebuild
   modeled time.

Program parameters are frozen against the *initial* graph: `sssp`/`bfs`
sources and `ppr`/`reachability` seed sets are resolved once, so every
incremental run — and every golden rebuild — solves the same problem as
the graph evolves (re-resolving ``argmax(out_degree)`` per batch would
silently change the query).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.algorithms import make_program
from repro.bench import runner as bench_runner
from repro.bench.results import ExecutionResult
from repro.core.engine import DiGraphConfig, DiGraphEngine
from repro.errors import ConfigurationError
from repro.gpu.config import SCALED_MACHINE, MachineSpec
from repro.graph.digraph import DiGraphCSR
from repro.graph.generators import TRACE_KNOBS, mutation_trace
from repro.streaming.delta import DeltaPlan, plan_delta
from repro.streaming.mutations import (
    AppliedBatch,
    MutationBatch,
    apply_batch,
)
from repro.streaming.repair import PathRepairer, RepairResult
from repro.verify.oracle import DISCRETE_ALGORITHMS, equivalence_band
from repro.verify.report import CheckResult


@dataclass(frozen=True)
class BatchOutcome:
    """Everything one batch produced, for reporting and assertions."""

    batch_id: int
    applied: AppliedBatch
    repair: RepairResult
    plan: DeltaPlan
    result: ExecutionResult           #: the incremental engine run
    incremental_total_s: float        #: repair + warm run, modeled
    #: From-scratch preprocess + cold run on the same graph (only when
    #: the batch was certified; the rebuild is what incremental avoids).
    rebuild_total_s: Optional[float] = None
    golden: Optional[ExecutionResult] = None
    certification: Optional[CheckResult] = None

    @property
    def mode(self) -> str:
        return self.plan.mode

    @property
    def speedup(self) -> Optional[float]:
        """Rebuild / incremental modeled time (when both are known)."""
        if self.rebuild_total_s is None or self.incremental_total_s <= 0:
            return None
        return self.rebuild_total_s / self.incremental_total_s


class StreamingSession:
    """One algorithm kept up to date across mutation batches."""

    def __init__(
        self,
        graph: DiGraphCSR,
        algorithm: str,
        machine_spec: Optional[MachineSpec] = None,
        config: Optional[DiGraphConfig] = None,
        graph_name: str = "stream",
        verify_structure: bool = False,
        program_kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.engine = DiGraphEngine(machine_spec, config)
        self.algorithm = algorithm.lower()
        self.graph_name = graph_name
        self.verify_structure = verify_structure
        self.graph = graph
        # Freeze graph-derived program parameters on the initial graph.
        probe = make_program(
            self.algorithm, graph, **(program_kwargs or {})
        )
        self.program_kwargs = dict(program_kwargs or {})
        if self.algorithm in ("sssp", "bfs"):
            self.program_kwargs.setdefault("source", probe.source)
        elif self.algorithm == "ppr":
            self.program_kwargs.setdefault("seeds", list(probe.seeds))
        elif self.algorithm == "reachability":
            self.program_kwargs.setdefault(
                "sources", list(probe.sources)
            )
        # Cold start: full Algorithm-1 preprocess + from-scratch run.
        pre = self.engine.preprocess(graph)
        self.repairer = PathRepairer(
            pre.path_set, n_workers=self.engine.config.n_workers
        )
        self.baseline = self.engine.run(
            graph, probe, preprocessed=pre, graph_name=graph_name
        )
        self.values = self.baseline.states
        self.batches_applied = 0

    # ------------------------------------------------------------------
    def _make_program(self, graph: DiGraphCSR):
        return make_program(self.algorithm, graph, **self.program_kwargs)

    # ------------------------------------------------------------------
    def apply(
        self, batch: MutationBatch, certify: bool = False
    ) -> BatchOutcome:
        """Apply one batch: mutate, repair, delta-recompute, certify."""
        applied = apply_batch(self.graph, batch)
        repair = self.repairer.apply(applied)
        # The derived views are rebuilt around the repaired paths; their
        # cost rides in the repair's modeled seconds, which charge the
        # path-count term the full preprocess model charges.
        pre = self.engine.assemble(
            applied.graph,
            repair.path_set,
            repair.dag,
            repair.modeled_seconds,
            verify=self.verify_structure,
        )
        program = self._make_program(applied.graph)
        plan = plan_delta(self.algorithm, program, applied, self.values)
        result = self.engine.run(
            applied.graph,
            program,
            preprocessed=pre,
            graph_name=self.graph_name,
            initial_values=plan.initial_values,
            initial_active=plan.initial_active,
        )
        result.stats.paths_repaired += repair.paths_repaired
        self.graph = applied.graph
        self.values = result.states
        self.batches_applied += 1
        incremental_total = result.stats.total_time_with_preprocess_s

        golden = None
        rebuild_total = None
        certification = None
        if certify:
            golden, certification = self._certify(applied.graph, result)
            rebuild_total = golden.stats.total_time_with_preprocess_s

        return BatchOutcome(
            batch_id=batch.batch_id,
            applied=applied,
            repair=repair,
            plan=plan,
            result=result,
            incremental_total_s=incremental_total,
            rebuild_total_s=rebuild_total,
            golden=golden,
            certification=certification,
        )

    def _certify(self, graph: DiGraphCSR, incremental: ExecutionResult):
        """From-scratch golden run + equivalence check on this graph."""
        from repro.verify.streaming import certify_incremental

        golden_program = self._make_program(graph)
        golden = self.engine.run(
            graph, golden_program, graph_name=self.graph_name
        )
        band = (
            0.0
            if self.algorithm in DISCRETE_ALGORITHMS
            else equivalence_band(golden_program, graph)
        )
        certification = certify_incremental(
            incremental.states, golden.states, band
        )
        return golden, certification

    @property
    def stats(self):
        """Stats bundle of the most recent engine run."""
        return self.baseline.stats


@dataclass
class StreamReport:
    """One replayed trace: the session it left and each batch's outcome."""

    session: StreamingSession
    outcomes: List[BatchOutcome]

    @property
    def certified(self) -> bool:
        """No certified batch failed (vacuously true without any)."""
        return all(
            outcome.certification.passed
            for outcome in self.outcomes
            if outcome.certification is not None
        )

    def metrics(self) -> Dict[str, float]:
        """Sums over the batches; rebuild time counts certified ones."""
        stats = [outcome.result.stats for outcome in self.outcomes]
        incr = sum(o.incremental_total_s for o in self.outcomes)
        rebuild = sum(o.rebuild_total_s or 0.0 for o in self.outcomes)
        return {
            "incremental_s": float(incr),
            "rebuild_s": float(rebuild),
            "speedup": float(rebuild / incr) if incr > 0 else 0.0,
            "vertices_reactivated": float(
                sum(s.vertices_reactivated for s in stats)
            ),
            "paths_repaired": float(sum(s.paths_repaired for s in stats)),
            "incremental_rounds": float(
                sum(s.incremental_rounds for s in stats)
            ),
        }


def run_stream_cell(
    algorithm: str,
    graph_name: str,
    *,
    scale: float = bench_runner.DEFAULT_SCALE,
    seed: int = 0,
    num_gpus: Optional[int] = None,
    machine: Optional[MachineSpec] = None,
    graph: Optional[DiGraphCSR] = None,
    trace: Optional[Iterable[MutationBatch]] = None,
    config: Optional[DiGraphConfig] = None,
    certify: bool = True,
    verify_structure: bool = False,
    **knobs,
) -> StreamReport:
    """Replay one seeded mutation trace through a fresh session.

    To the streaming layer what :func:`repro.bench.runner.run_cell` is
    to batch cells and :func:`repro.serve.runner.run_serve_cell` to
    serving; the sweep runner's stream cells, ``repro stream`` and
    :func:`repro.verify.streaming.verify_stream` all replay through it.
    ``knobs`` are the :data:`~repro.graph.generators.TRACE_KNOBS` by
    their external names; the trace is drawn from them and ``seed``
    unless ``trace`` supplies the batches. Nothing is memoized: a replay
    mutates its session.
    """
    unknown = sorted(set(knobs) - {row.name for row in TRACE_KNOBS})
    if unknown:
        raise ConfigurationError(f"unknown stream knob(s) {unknown}")
    spec = machine or SCALED_MACHINE
    if num_gpus is not None:
        spec = spec.scaled(num_gpus)
    if graph is None:
        graph = bench_runner.load_graph(graph_name, algorithm, scale)
    if trace is None:
        n_batches, batch_size, mix = (
            row.convert(knobs.get(row.name, row.default))
            for row in TRACE_KNOBS
        )
        trace = mutation_trace(
            graph, n_batches, seed=seed, batch_size=batch_size, mix=mix
        )
    session = StreamingSession(
        graph,
        algorithm,
        machine_spec=spec,
        config=config,
        graph_name=graph_name,
        verify_structure=verify_structure,
    )
    return StreamReport(
        session, [session.apply(batch, certify=certify) for batch in trace]
    )
