"""Sequential topological-order reference execution (Fig. 2d).

"The number of vertex updates required by the sequential execution of
iterative directed graph algorithm, where all vertices are tried to be
sequentially and asynchronously handled by a thread according to the
topological order of the directed graph."

The vertex graph's SCCs are contracted; SCC-vertices are processed in
topological order. A singleton SCC (no self-loop) converges after exactly
one update — Observation 2's one-update vertices. Inside a multi-vertex
SCC, a worklist iterates until the component stabilizes. The function
reports the update count this oracle needs, the floor every parallel
engine is compared against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.bench.results import ExecutionResult
from repro.gpu.stats import MachineStats
from repro.graph.digraph import DiGraphCSR
from repro.graph.scc import condensation
from repro.graph.traversal import topological_order
from repro.kernels.steps import resolve_step
from repro.model.gas import VertexProgram
from repro.model.state import VertexStates


@dataclass(frozen=True)
class SequentialResult:
    """Outcome of the sequential topological oracle."""

    algorithm: str
    graph_name: str
    vertex_updates: int        #: apply calls that changed a state
    apply_calls: int           #: all apply calls
    one_update_vertices: int   #: vertices updated exactly once
    states: np.ndarray
    wall_seconds: float

    @property
    def one_update_fraction(self) -> float:
        if self.states.size == 0:
            return 0.0
        return self.one_update_vertices / self.states.size


def sequential_topological_run(
    graph: DiGraphCSR,
    program: VertexProgram,
    graph_name: str = "graph",
    max_iterations_per_scc: int = 100000,
) -> SequentialResult:
    """Run ``program`` sequentially along the condensation's topological
    order and count the updates needed."""
    started = time.perf_counter()
    states = VertexStates(graph, program)
    step = resolve_step(program, graph).step
    # One thread, one memory: every read is fresh. ``reads`` mirrors
    # ``states.values`` as a list so an edge read is a list index.
    reads = states.values.tolist()
    cond = condensation(graph)
    order = topological_order(cond.dag)

    apply_calls = 0
    updates = 0
    update_count_per_vertex: Dict[int, int] = {}

    for scc in order:
        members = list(cond.members[int(scc)])
        # Worklist restricted to this SCC; initially its active members.
        worklist = [v for v in members if states.active[v]]
        member_set = set(members)
        iterations = 0
        while worklist and iterations < max_iterations_per_scc:
            iterations += 1
            next_worklist = []
            for v in worklist:
                if not states.active[v]:
                    continue
                states.active[v] = False
                new, changed = step(v, reads[v], reads)
                apply_calls += 1
                states.values[v] = reads[v] = new
                if changed:
                    updates += 1
                    update_count_per_vertex[v] = (
                        update_count_per_vertex.get(v, 0) + 1
                    )
                    for u in program.dependents(graph, v):
                        if not states.active[u]:
                            states.active[u] = True
                            if u in member_set:
                                next_worklist.append(u)
                            # Vertices outside this SCC are downstream in
                            # topological order and stay active for their
                            # own SCC's turn (or upstream for symmetric
                            # programs — they re-enter via their SCC too).
            worklist = next_worklist

    # Programs with symmetric dependents (k-core, wcc) may re-activate
    # upstream SCCs; sweep until globally stable.
    safety = 0
    while states.any_active() and safety < max_iterations_per_scc:
        safety += 1
        for v in states.active_vertices():
            v = int(v)
            states.active[v] = False
            new, changed = step(v, reads[v], reads)
            apply_calls += 1
            states.values[v] = reads[v] = new
            if changed:
                updates += 1
                update_count_per_vertex[v] = (
                    update_count_per_vertex.get(v, 0) + 1
                )
                for u in program.dependents(graph, v):
                    states.active[u] = True

    one_update = sum(
        1 for count in update_count_per_vertex.values() if count == 1
    )
    return SequentialResult(
        algorithm=program.name,
        graph_name=graph_name,
        vertex_updates=updates,
        apply_calls=apply_calls,
        one_update_vertices=one_update,
        states=states.values.copy(),
        wall_seconds=time.perf_counter() - started,
    )


class SequentialEngine:
    """Engine-shaped adapter around the sequential topological oracle.

    Lets the cross-engine conformance harness treat the single-thread
    reference as just another engine: same ``run`` signature, same
    :class:`ExecutionResult`. It models no machine (one CPU thread), so
    all time/traffic counters stay zero; only the update counters carry
    information.
    """

    name = "sequential"

    def __init__(self, machine_spec=None, config=None) -> None:
        # Accepted and ignored: the oracle runs on one host thread.
        self.spec = machine_spec
        self.config = config

    def run(
        self,
        graph: DiGraphCSR,
        program: VertexProgram,
        preprocessed=None,
        graph_name: str = "graph",
        strict_convergence: bool = True,
    ) -> ExecutionResult:
        result = sequential_topological_run(
            graph, program, graph_name=graph_name
        )
        stats = MachineStats()
        stats.vertex_updates = result.vertex_updates
        stats.apply_calls = result.apply_calls
        return ExecutionResult(
            engine=self.name,
            algorithm=result.algorithm,
            graph_name=graph_name,
            converged=True,
            rounds=0,
            states=result.states,
            stats=stats,
            wall_seconds=result.wall_seconds,
            extras={
                "one_update_fraction": result.one_update_fraction,
            },
        )

    def engine_label(self) -> str:
        return self.name
