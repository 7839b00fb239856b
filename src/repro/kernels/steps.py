"""Step kernels: one fused gather-apply step per vertex, per algebra.

The second compiled form, next to batch (:mod:`repro.kernels.base`):
where a batch kernel updates a whole frontier against one snapshot (a
Jacobi schedule), a **step** kernel
updates *one* vertex against whatever the engine says that vertex can
see right now — the unit of a Gauss-Seidel schedule (the path walk, the
async worklist, the sequential oracle). It is the paper's SMX step,
gather -> accumulate -> apply fused into one call per path vertex, and
the UDF-into-traversal-loop fusion GPU graph compilers perform: the
program declares its algebra, the engine owns the schedule.

:func:`resolve_step` returns ``step(v, old, reads) -> (new, changed)``
and the per-vertex gather-degree list the engines charge to
``edge_traversals``. ``reads`` is anything indexable by vertex id; the
engines pass plain Python lists, so an edge read is a list index.

Bit-equivalence contract
------------------------
``step(v, old, reads)`` performs the IEEE-754 operations of
``gather`` -> ``accumulate`` -> ``apply`` -> ``has_converged`` in the
same order, over per-vertex gather inputs cut from the graph's CSC / CSR
arrays in one pass when the step is bound — the edges, in the order,
the program's *own* ``gather_edges`` yields:

- **linear** (pagerank, ppr, adsorption) — the left-to-right sum
  ``((0.0 + g_0) + g_1) + ...`` with ``g`` the program's own float
  expression, ``x / out_degree[src]`` or ``x * (weight / in_weight_sum
  [dst])``, whose state-independent factor is computed once per edge
  (by that same expression, so to the same double). Never ``sum()``:
  CPython's is compensated.
- **monotone** (sssp, bfs, wcc, reachability) — the comparison forms
  verbatim, ``a if a <= b else b`` and ``acc if acc < old else old``,
  never ``min``/``np.minimum``: comparisons against NaN are false, so
  which operand survives a fault-injected NaN poison (or an ``inf``)
  depends on the form, and the engines' trajectories depend on that.
- **structural** (k-core) — counts alive neighbours by adding ``1.0``.

A program without a registered step — or a subclass of a registered one
that overrides any protocol method — gets :func:`generic_step`, which
*is* the protocol loop, over inputs memoised on first touch from
``gather_edges``.

:func:`dependents_table` is the same for ``dependents``: the tuples the
Gauss-Seidel engines activate from when a state changes.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from repro.algorithms.adsorption import Adsorption
from repro.algorithms.bfs import BFSLevels
from repro.algorithms.kcore import KCore
from repro.algorithms.pagerank import PageRank
from repro.algorithms.ppr import PersonalizedPageRank
from repro.algorithms.reachability import Reachability
from repro.algorithms.sssp import SSSP
from repro.algorithms.wcc import WeaklyConnectedComponents
from repro.graph.digraph import DiGraphCSR
from repro.kernels.registry import registered_for
from repro.model.gas import VertexProgram

INFINITY = float("inf")

StepFn = Callable[[int, float, Sequence[float]], Tuple[float, bool]]


class StepKernel(NamedTuple):
    """What :func:`resolve_step` binds for one ``(program, graph)``."""

    #: ``step(v, old, reads) -> (new, changed)``; writes nothing.
    step: StepFn
    #: Gather-edge count per vertex (``program.gather_degree``).
    degree: List[int]
    #: The gather inputs ``step`` reads per vertex, in ``gather_edges``
    #: order: ``(src, c)`` pairs (``c`` the per-edge constant) or bare
    #: sources. ``generic_step`` fills its ``None`` entries on first
    #: touch.
    inputs: List[Optional[tuple]]


StepBuilder = Callable[[VertexProgram, DiGraphCSR], StepKernel]

_BUILDERS: Dict[Type[VertexProgram], StepBuilder] = {}


def _register(*program_classes: Type[VertexProgram]):
    def decorate(builder: StepBuilder) -> StepBuilder:
        for program_cls in program_classes:
            _BUILDERS[program_cls] = builder
        return builder

    return decorate


def step_builder_for(program: VertexProgram) -> Optional[StepBuilder]:
    """The registered builder for ``program``'s exact class — or for a
    base class, when the subclass overrides no protocol method."""
    return registered_for(_BUILDERS, program)


def resolve_step(program: VertexProgram, graph: DiGraphCSR) -> StepKernel:
    """Bind ``program``'s step kernel to ``graph`` (run set-up).

    Call after ``program.initial_states(graph)`` — as every engine does
    by building its :class:`~repro.model.state.VertexStates` first — so
    the program's graph-derived caches describe this graph.
    """
    builder = step_builder_for(program) or generic_step
    return builder(program, graph)


#: Registered programs that gather over both directions: their gather
#: inputs are in- then out-neighbours, their dependents out- then in-.
_SYMMETRIC = (WeaklyConnectedComponents, KCore)


def _slices(indptr: np.ndarray, flat: Iterable) -> List[tuple]:
    """``flat`` cut at ``indptr``: one tuple per vertex."""
    flat, bounds = tuple(flat), indptr.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _kept(indptr: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``indptr`` of the entries ``keep`` leaves in place."""
    return np.concatenate(([0], np.cumsum(keep)))[indptr]


def _neighbours(graph: DiGraphCSR, *directions: str) -> List[tuple]:
    """Each vertex's ``"in"`` (CSC) and / or ``"out"`` (CSR)
    neighbours, the directions in the order given."""
    cuts = []
    for direction in directions:
        indptr, flat = (
            graph.csc_arrays()[:2]
            if direction == "in"
            else (graph.indptr, graph.indices)
        )
        cuts.append(_slices(indptr, flat.tolist()))
    return cuts[0] if len(cuts) == 1 else [a + b for a, b in zip(*cuts)]


def dependents_table(
    program: VertexProgram, graph: DiGraphCSR
) -> List[Optional[tuple]]:
    """Each vertex's ``program.dependents`` as a tuple of ints.

    For a registered program, every entry is cut from the CSR / CSC
    arrays here; otherwise every entry is ``None`` and the caller
    memoises the program's own ``dependents`` on first touch.
    """
    if step_builder_for(program) is None:
        return [None] * graph.num_vertices
    if isinstance(program, _SYMMETRIC):
        return _neighbours(graph, "out", "in")
    return _neighbours(graph, "out")


def _in_degrees(graph: DiGraphCSR) -> List[int]:
    return graph.in_degree().tolist()


def _both_degrees(graph: DiGraphCSR) -> List[int]:
    return (graph.in_degree() + graph.out_degree()).tolist()


# ----------------------------------------------------------------------
# generic: the protocol loop
# ----------------------------------------------------------------------
def generic_step(program: VertexProgram, graph: DiGraphCSR) -> StepKernel:
    """The program's own ``gather``/``accumulate``/``apply`` per edge."""
    identity = program.identity
    gather, accumulate = program.gather, program.accumulate
    apply, has_converged = program.apply, program.has_converged
    table: List[Optional[tuple]] = [None] * graph.num_vertices

    def step(v, old, reads):
        inputs = table[v]
        if inputs is None:
            inputs = table[v] = tuple(program.gather_edges(graph, v))
        acc = identity
        for src, weight in inputs:
            acc = accumulate(acc, gather(float(reads[src]), weight, src, v))
        new = apply(v, old, acc)
        return new, not has_converged(old, new)

    return StepKernel(
        step,
        [program.gather_degree(graph, v) for v in range(graph.num_vertices)],
        table,
    )


# ----------------------------------------------------------------------
# linear: new = base(v) + scale * sum_{u -> v} g(u, v)
# ----------------------------------------------------------------------
def _linear_step(table, base, scale, tolerance, divide) -> StepFn:
    """The ordered sum with ``g = x / c`` (``divide``) or ``g = x * c``,
    ``c`` the per-edge constant kept next to the source."""
    if divide:

        def step(v, old, reads):
            acc = 0.0
            for src, c in table[v]:
                acc = acc + reads[src] / c
            new = base[v] + scale * acc
            return new, not (abs(new - old) <= tolerance)

    else:

        def step(v, old, reads):
            acc = 0.0
            for src, c in table[v]:
                acc = acc + reads[src] * c
            new = base[v] + scale * acc
            return new, not (abs(new - old) <= tolerance)

    return step


@_register(PageRank, PersonalizedPageRank)
def _rank_step(program, graph: DiGraphCSR) -> StepKernel:
    """``base(v) + d * sum x / out_degree[src]`` — ``base`` is ``1 - d``
    (pagerank) or ``(1 - d) * teleport[v]`` (ppr)."""
    n = graph.num_vertices
    damping = program.damping
    if isinstance(program, PersonalizedPageRank):
        share = 1.0 / len(program.seeds)
        base = [0.0] * n
        for seed in program.seeds:
            base[seed] = share
        base = [(1.0 - damping) * t for t in base]
    else:
        base = [1.0 - damping] * n
    # ``gather`` returns 0.0 for a source without out-edges; adding
    # 0.0 to a sum that started at +0.0 leaves every bit alone, so such
    # an input (no in-edge has one) is skipped.
    indptr, sources, _ = graph.csc_arrays()
    out_degree = graph.out_degree().astype(float)[sources]
    keep = out_degree != 0
    table = _slices(
        _kept(indptr, keep),
        zip(sources[keep].tolist(), out_degree[keep].tolist()),
    )
    step = _linear_step(table, base, damping, program.tolerance, divide=True)
    return StepKernel(step, _in_degrees(graph), table)


@_register(Adsorption)
def _adsorption_step(program: Adsorption, graph: DiGraphCSR) -> StepKernel:
    """``p_inj * injection[v] + p_cont * sum x * (w / in_weight_sum[v])``."""
    if program._injection is None or program._in_weight_sum is None:
        # Deterministic caches; recomputing them is idempotent.
        program.initial_states(graph)
    p_inj = program.p_inj
    base = [p_inj * x for x in program._injection.tolist()]
    indptr, sources, weights = graph.csc_arrays()
    denom = np.repeat(program._in_weight_sum, np.diff(indptr))
    # A zero in-weight sum makes every gather value 0.0: the sum stays
    # +0.0 with no input at all.
    keep = denom != 0
    table = _slices(
        _kept(indptr, keep),
        zip(sources[keep].tolist(), (weights[keep] / denom[keep]).tolist()),
    )
    step = _linear_step(
        table, base, program.p_cont, program.tolerance, divide=False
    )
    return StepKernel(step, _in_degrees(graph), table)


# ----------------------------------------------------------------------
# monotone: min / max folds, comparison forms verbatim
# ----------------------------------------------------------------------
@_register(SSSP, BFSLevels)
def _relax_step(program, graph: DiGraphCSR) -> StepKernel:
    """``min(old, min_{u -> v} x + w)``, source pinned to 0; ``w`` is
    the edge weight (sssp) or ``1.0`` (bfs)."""
    source = program.source
    indptr, sources, weights = graph.csc_arrays()
    if isinstance(program, BFSLevels):
        weights = np.ones_like(weights)
    table = _slices(indptr, zip(sources.tolist(), weights.tolist()))

    def step(v, old, reads):
        acc = INFINITY
        for src, weight in table[v]:
            x = reads[src]
            g = INFINITY if x == INFINITY else x + weight
            acc = acc if acc <= g else g
        if v == source:
            new = 0.0
        else:
            new = acc if acc < old else old
        return new, not (new == old)

    return StepKernel(step, _in_degrees(graph), table)


@_register(WeaklyConnectedComponents)
def _min_label_step(program, graph: DiGraphCSR) -> StepKernel:
    """``min(old, min over both directions of x)``."""
    table = _neighbours(graph, "in", "out")

    def step(v, old, reads):
        acc = INFINITY
        for src in table[v]:
            g = reads[src]
            acc = acc if acc <= g else g
        new = acc if acc < old else old
        return new, not (new == old)

    return StepKernel(step, _both_degrees(graph), table)


@_register(Reachability)
def _reach_step(program: Reachability, graph: DiGraphCSR) -> StepKernel:
    """Monotone OR from the source set; the folds are builtin ``max``
    spelled out (``max(a, b)`` is ``b if b > a else a``)."""
    sources = frozenset(program.sources)
    table = _neighbours(graph, "in")

    def step(v, old, reads):
        if v in sources:
            return 1.0, not (1.0 == old)
        acc = 0.0
        for src in table[v]:
            g = reads[src]
            acc = g if g > acc else acc
        reached = 1.0 if acc > 0 else 0.0
        new = reached if reached > old else old
        return new, not (new == old)

    return StepKernel(step, _in_degrees(graph), table)


# ----------------------------------------------------------------------
# structural: k-core peeling
# ----------------------------------------------------------------------
@_register(KCore)
def _kcore_step(program: KCore, graph: DiGraphCSR) -> StepKernel:
    """Peel ``v`` once fewer than ``k`` neighbours are alive."""
    k = program.k
    table = _neighbours(graph, "in", "out")

    def step(v, old, reads):
        if old == 0.0:
            return 0.0, False  # peeling is permanent
        acc = 0.0
        for src in table[v]:
            if reads[src] > 0.0:
                acc = acc + 1.0
        new = 1.0 if acc >= k else 0.0
        return new, not (new == old)

    return StepKernel(step, _both_degrees(graph), table)
