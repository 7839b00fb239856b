"""Multi-source solver: k point queries in one layered sweep.

:class:`MultiSourceSolver` runs k same-algorithm queries as one
computation over a ``(k, n)`` state matrix: the algorithm's batch kernel
(:mod:`repro.kernels.base`) built from the k programs, one state row
each — or, for one query, the one-program kernel over ``(n,)`` states
(the kernel layer's rank rule). Each round sweeps the shared
:class:`~repro.serve.context.ServingContext` layer batches in ascending
layer order — Jacobi within a batch, Gauss-Seidel across batches — and
a batch is launched when **any** lane has an active vertex in it (the
union frontier).

Why the union frontier preserves per-lane bit-identity
------------------------------------------------------
Writes are **gated on** ``changed``: a recomputed value is applied only
where the kernel reports a change, so "state mutated ⟺ dependents
activated" holds exactly even for tolerance-converged kernels like ppr
(whose sub-tolerance drift would otherwise move gather inputs without
activating anyone). With that invariant, for a lane where a selected
vertex is *inactive*, every gather input of that vertex is unchanged
since the lane last computed (or initialized) it. Recomputing is then
the same deterministic float expression over the same inputs, so it
returns the same value bitwise, reports ``changed=False``, and activates
nothing. Lane i of a k-lane solve therefore performs precisely the state
trajectory of running query i alone, interleaved with bitwise no-ops —
which :meth:`MultiSourceSolver.solve_reference` (an independent scalar
per-vertex code path over per-lane frontiers) certifies end to end.

Modeled cost
------------
``service = Σ_launches (LAUNCH_OVERHEAD + waves · cycles_per_edge / f)``
where one *launch* processes one layer batch and ``waves`` is the
edge-lane work of the launch divided by the GPU's resident thread count.
Kernel-launch overhead (~3.5 µs on real CUDA) dominates the sparse
frontiers of point queries, so batching k queries into one launch
sequence — more work per launch, k× fewer launches — is where the
serving throughput comes from. The accounting is deterministic, so
``BENCH_serve.json`` is byte-reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError, GPULostError
from repro.kernels.base import take_vertices
from repro.kernels.registry import resolve_kernel
from repro.model.gas import VertexProgram
from repro.serve.context import ServingContext

#: Fixed cost of one kernel launch (real CUDA launch overhead ballpark).
KERNEL_LAUNCH_OVERHEAD_S = 3.5e-6

#: ``ndarray.any`` / ``ndarray.sum`` minus their method wrappers, for
#: the solve loop's masks and launch work.
_any = np.logical_or.reduce
_sum = np.add.reduce


def lane_digest(states: np.ndarray) -> str:
    """sha256 over the exact float64 bytes of one lane's final states."""
    return hashlib.sha256(
        np.ascontiguousarray(states, dtype=np.float64).tobytes()
    ).hexdigest()


#: Certified bound kind per servable algorithm for partial answers.
#: ``"l1"``: the true fixed point is within ``residual_bound`` of the
#: partial state in L1 norm (contraction argument). ``"upper"``: the
#: partial state is a pointwise upper bound on the true values (monotone
#: decreasing relaxation). ``"lower"``: pointwise lower bound (monotone
#: increasing saturation — reachability under-approximation).
RESIDUAL_BOUND_KINDS = {
    "ppr": "l1",
    "sssp": "upper",
    "bfs": "upper",
    "reachability": "lower",
}


def residual_bound_kind(algorithm: str) -> str:
    """The certificate kind a partial answer of ``algorithm`` carries."""
    try:
        return RESIDUAL_BOUND_KINDS[algorithm]
    except KeyError:
        raise ConfigurationError(
            f"no degraded-answer certificate for {algorithm!r}"
        ) from None


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one multi-source solve.

    ``lane_rounds[i]`` is the round in which lane i's frontier emptied —
    equal to the rounds a standalone run of query i would take.
    ``edge_lane_work`` counts (edge, lane) gather pairs; ``launches``
    counts layer-batch kernel launches.

    A budgeted solve (``time_budget_s``) may stop before every lane
    converges: ``lane_converged[i]`` says whether lane i reached its
    fixed point, and for unconverged lanes ``lane_residuals[i]`` is the
    exact L1 norm of that lane's true residual ``F(x) - x`` (measured by
    a read-only recompute pass over the frontier; deltas from or to
    non-finite values are excluded, so the number is always finite).
    For contraction algorithms (ppr, damping d) this certifies
    ``‖x* − x‖₁ ≤ lane_residuals[i] / (1 − d)``; for monotone
    algorithms the partial state itself is the certificate (see
    :data:`RESIDUAL_BOUND_KINDS`).
    """

    states: np.ndarray
    digests: Tuple[str, ...]
    rounds: int
    lane_rounds: Tuple[int, ...]
    launches: int
    edge_lane_work: int
    modeled_seconds: float
    converged: bool = True
    lane_converged: Tuple[bool, ...] = ()
    lane_residuals: Tuple[float, ...] = ()

    @property
    def num_lanes(self) -> int:
        return self.states.shape[0]


class MultiSourceSolver:
    """Layered fixed-point solver for a batch of same-class queries."""

    def __init__(
        self,
        context: ServingContext,
        programs: Sequence[VertexProgram],
        max_rounds: int = 100000,
        fault_hook: Optional[Callable[[int], None]] = None,
    ) -> None:
        if not programs:
            raise ConfigurationError("solver needs at least one program")
        if max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        self.context = context
        self.programs = tuple(programs)
        self.max_rounds = max_rounds
        self.fault_hook = fault_hook
        gpu = context.spec.gpu
        self._threads = gpu.num_smxs * gpu.threads_per_smx
        self._seconds_per_wave = gpu.cycles_per_edge / gpu.clock_hz
        self._in_degree = context.graph.in_degree()

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def _launch_seconds(self, work: int) -> float:
        waves = -(-int(work) // self._threads) if work else 0
        return KERNEL_LAUNCH_OVERHEAD_S + waves * self._seconds_per_wave

    # ------------------------------------------------------------------
    # vectorized lane solve
    # ------------------------------------------------------------------
    def _pending_batches(self, active: np.ndarray) -> np.ndarray:
        """One flag per layer batch: does any lane have an active vertex
        in it. :meth:`solve` keeps ``pending[b] ⟺ active[...,
        layer_batches[b]].any()`` true at every probe by flagging the
        batch of every vertex it activates and clearing a batch's flag
        when it is launched (a launch selects every active vertex of
        the batch), so the sweep never gathers an idle batch. ``active``
        is ``(n,)`` for one query, ``(k, n)`` for k."""
        pending = np.zeros(len(self.context.layer_batches), dtype=bool)
        union = _any(active.reshape(-1, active.shape[-1]), axis=0)
        pending[self.context.batch_of_vertex[union]] = True
        return pending

    def solve(self, time_budget_s: Optional[float] = None) -> SolveResult:
        """Run all lanes to convergence with the registered batch kernel.

        One query runs the one-program kernel: states, active flags and
        every launch's ``old`` / ``new`` / ``changed`` are ``(n,)`` and
        ``(len(sel),)`` arrays, on NumPy's 1-D indexing fast path. k
        queries run the k-program kernel on ``(k, n)``. Only the lane
        reduction (the union frontier and the moved vertices) and the
        gated write + activation scatter depend on the rank; the
        per-lane bookkeeping reads ``(k, n)`` views of both.

        With ``time_budget_s`` the solve becomes a **brownout** solve:
        before each round it estimates the round's cost from the
        previous round and stops at the round boundary if finishing
        would overshoot the budget (at least one round always runs).
        Unconverged lanes then get an exact residual measurement via a
        read-only recompute pass over the union frontier — the write-
        gate invariant makes the true residual ``F(x) − x`` supported
        exactly on the active set, so one frontier pass measures it in
        full. The pass is charged as real launches on the modeled
        clock, and a budgeted solve never raises
        :class:`ConvergenceError` — hitting ``max_rounds`` degrades
        instead.
        """
        context = self.context
        k = len(self.programs)
        kernel = resolve_kernel(
            self.programs[0] if k == 1 else self.programs, context.graph
        )
        one_lane = kernel.num_lanes is None
        states = kernel.initial_states()
        active = kernel.initial_active()
        lane_states = states.reshape(k, -1)
        lane_active = active.reshape(k, -1)
        batches = context.layer_batches
        batch_of_vertex = context.batch_of_vertex
        in_degree = self._in_degree
        pending = self._pending_batches(active)
        live = _any(lane_active, axis=1)
        lane_rounds = np.zeros(k, dtype=np.int64)
        launches = 0
        edge_lane_work = 0
        modeled = 0.0
        rounds = 0
        round_cost = 0.0

        def launch(b: int):
            """Charge and run one launch over batch ``b``'s union
            frontier; read-only: ``(sel, old, new, changed)``."""
            nonlocal launches, edge_lane_work, modeled
            batch = batches[b]
            if one_lane:
                sel = batch[active[batch]]
            else:
                sel = batch[_any(active.take(batch, axis=1), axis=0)]
            if self.fault_hook is not None:
                try:
                    self.fault_hook(launches)
                except GPULostError as exc:
                    # The failed launch's overhead is wasted GPU time
                    # the server charges before replaying.
                    exc.modeled_seconds_completed = (
                        modeled + KERNEL_LAUNCH_OVERHEAD_S
                    )
                    exc.launches_completed = launches
                    raise
            work = k * int(_sum(in_degree[sel]))
            launches += 1
            edge_lane_work += work
            modeled += self._launch_seconds(work)
            old = take_vertices(states, sel)
            return (sel, old, *kernel.batch_update(sel, states, old))

        while _any(pending):
            if time_budget_s is not None and rounds >= 1:
                if modeled + round_cost > time_budget_s:
                    break
                if rounds >= self.max_rounds:
                    break
            elif rounds >= self.max_rounds:
                raise ConvergenceError(
                    f"multi-source {kernel.name} did not converge",
                    rounds=rounds,
                    active_vertices=int(_any(lane_active, axis=0).sum()),
                )
            rounds += 1
            round_start_s = modeled
            # Ascending sweep over the batches with a live frontier; a
            # launch may flag a later batch (swept this round) or its
            # own / an earlier one (next round).
            for b in range(len(batches)):
                if not pending[b]:
                    continue
                sel, old, new, changed = launch(b)
                pending[b] = False
                # Write-gate: apply only where changed. For monotone
                # kernels this is a no-op (changed ⟺ new != old); for
                # tolerance-converged kernels (ppr) it discards
                # sub-tolerance drift, making "state mutated ⟺
                # dependents activated" exact — the invariant the
                # union-frontier bit-identity proof stands on. Read the
                # other way, it says a vertex no lane changed has nobody
                # to activate: dependents are built for the moved
                # vertices only.
                if one_lane:
                    (moved,) = changed.nonzero()
                    active[sel] = False
                    if moved.size:
                        # The gated write: where nothing moved, ``old``
                        # is what ``states`` already holds.
                        sources = sel[moved]
                        states[sources] = new[moved]
                        targets, _ = kernel.batch_dependents(sources)
                        active[targets] = True
                        pending[batch_of_vertex[targets]] = True
                    continue
                (moved,) = _any(changed, axis=0).nonzero()
                states[:, sel] = np.where(changed, new, old)
                active[:, sel] = False
                if moved.size:
                    targets, seg_offsets = kernel.batch_dependents(sel[moved])
                    lanes, cols = changed.take(moved, axis=1).repeat(
                        seg_offsets[1:] - seg_offsets[:-1], axis=1
                    ).nonzero()
                    active[lanes, targets[cols]] = True
                    pending[batch_of_vertex[targets]] = True
            still = _any(lane_active, axis=1)
            lane_rounds[live & ~still] = rounds
            live &= still
            round_cost = modeled - round_start_s
        lane_converged = ~_any(lane_active, axis=1)
        residuals = [0.0] * k
        if not lane_converged.all():
            # Read-only residual pass: recompute the union frontier
            # once without applying writes. For a lane where a selected
            # vertex is inactive the recompute is a bitwise no-op
            # (changed=False), so the per-lane sum over the union
            # frontier is exactly that lane's own residual.
            for b in np.flatnonzero(pending).tolist():
                _, old, new, changed = launch(b)
                finite = changed & np.isfinite(old) & np.isfinite(new)
                delta = np.zeros_like(old)
                np.subtract(new, old, out=delta, where=finite)
                lane_delta = delta.reshape(k, -1)
                for i in range(k):
                    residuals[i] += float(np.abs(lane_delta[i]).sum())
            lane_rounds[~lane_converged] = rounds
        return SolveResult(
            states=lane_states,
            digests=tuple(lane_digest(lane_states[i]) for i in range(k)),
            rounds=rounds,
            lane_rounds=tuple(lane_rounds.tolist()),
            launches=launches,
            edge_lane_work=edge_lane_work,
            modeled_seconds=modeled,
            converged=bool(lane_converged.all()),
            lane_converged=tuple(lane_converged.tolist()),
            lane_residuals=tuple(residuals),
        )

    # ------------------------------------------------------------------
    # scalar golden reference (independent code path)
    # ------------------------------------------------------------------
    def solve_reference(self) -> SolveResult:
        """k independent single-query scalar runs, same layer schedule.

        This is the golden the serving layer certifies against: a plain
        ``update_vertex`` Python loop per lane over that lane's *own*
        frontier (no union batching, no batch kernels, no shared float
        ops), so agreement with :meth:`solve` is evidence, not
        circularity. Cost accounting models sequential dispatch: one
        launch per (lane, layer batch).
        """
        graph = self.context.graph
        k = len(self.programs)
        n = graph.num_vertices
        states = np.empty((k, n), dtype=np.float64)
        lane_rounds: List[int] = []
        launches = 0
        edge_lane_work = 0
        modeled = 0.0
        for i, program in enumerate(self.programs):
            lane_states = program.initial_states(graph)
            active = program.initial_active(graph)
            rounds = 0
            while active.any():
                if rounds >= self.max_rounds:
                    raise ConvergenceError(
                        f"reference {program.name} did not converge",
                        rounds=rounds,
                        active_vertices=int(active.sum()),
                    )
                rounds += 1
                for batch in self.context.layer_batches:
                    sel = batch[active[batch]]
                    if sel.size == 0:
                        continue
                    work = int(self._in_degree[sel].sum())
                    launches += 1
                    edge_lane_work += work
                    modeled += self._launch_seconds(work)
                    updates = [
                        program.update_vertex(graph, int(v), lane_states)
                        for v in sel
                    ]
                    active[sel] = False
                    for v, (new, changed) in zip(sel, updates):
                        if changed:  # same write-gate as solve()
                            lane_states[v] = new
                    for v, (new, changed) in zip(sel, updates):
                        if changed:
                            for u in program.dependents(graph, int(v)):
                                active[u] = True
            states[i] = lane_states
            lane_rounds.append(rounds)
        return SolveResult(
            states=states,
            digests=tuple(lane_digest(states[i]) for i in range(k)),
            rounds=max(lane_rounds) if lane_rounds else 0,
            lane_rounds=tuple(lane_rounds),
            launches=launches,
            edge_lane_work=edge_lane_work,
            modeled_seconds=modeled,
            converged=True,
            lane_converged=tuple(True for _ in range(k)),
            lane_residuals=tuple(0.0 for _ in range(k)),
        )
