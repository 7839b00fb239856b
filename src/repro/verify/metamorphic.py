"""Metamorphic relations: results invariant under problem renamings.

Two relations that hold for every algorithm without knowing the correct
output (the classic defense when no ground truth exists):

- **vertex relabeling** — permuting vertex ids (and renaming the
  algorithm's parameters along) must permute the result and nothing
  else. WCC is compared as a *partition* (its labels are min vertex
  ids, which the permutation legitimately changes).
- **isolated-vertex augmentation** — appending edge-less vertices must
  leave the original vertices' results untouched (all eight programs
  are formulated so an unreachable, unconnected vertex contributes
  nothing; PageRank deliberately uses the non-normalized form).

Discrete programs must match exactly; contractions within the
cross-engine tolerance band (relabeling reorders gather folds, so
floating-point sums may differ in the last bits).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import make_program
from repro.bench.runner import make_engine
from repro.errors import ReproError
from repro.gpu.config import SCALED_MACHINE, MachineSpec
from repro.graph.builder import from_edges
from repro.graph.digraph import DiGraphCSR
from repro.verify.oracle import (
    CONTRACTION_ALGORITHMS,
    equivalence_band,
    states_equivalent,
)
from repro.verify.report import CheckResult

#: Algorithms whose parameters name vertices and must be renamed along
#: with the graph (and which need a source, so empty graphs skip them).
SOURCE_ALGORITHMS = frozenset({"sssp", "bfs", "ppr", "reachability"})

#: Algorithms compared as a partition of the vertices instead of by
#: value: their labels are representative vertex ids.
PARTITION_ALGORITHMS = frozenset({"wcc"})


def _deterministic_injection(n: int) -> np.ndarray:
    """RNG-free adsorption prior; a pure function of nothing but the
    array *position*, so relabeling can permute it explicitly."""
    v = np.arange(n, dtype=np.float64)
    return ((v * 37.0 + 11.0) % 97.0) / 97.0


def _base_kwargs(algo: str, graph: DiGraphCSR) -> Dict:
    """Explicit, relabeling-aware program parameters.

    ``make_program``'s defaults are functions of vertex *ids* (argmax
    tie-breaks, seeded priors), which would silently change the problem
    under a relabeling — every parameter is pinned here instead.
    """
    if algo == "adsorption":
        return {"injection": _deterministic_injection(graph.num_vertices)}
    if algo in SOURCE_ALGORITHMS:
        source = int(np.argmax(graph.out_degree()))
        if algo == "sssp" or algo == "bfs":
            return {"source": source}
        if algo == "ppr":
            return {"seeds": [source]}
        return {"sources": [source]}
    return {}


def _relabel_kwargs(
    algo: str, kwargs: Dict, perm: np.ndarray
) -> Dict:
    """The same problem under the permutation ``v -> perm[v]``."""
    renamed = dict(kwargs)
    if "source" in renamed:
        renamed["source"] = int(perm[renamed["source"]])
    if "seeds" in renamed:
        renamed["seeds"] = [int(perm[s]) for s in renamed["seeds"]]
    if "sources" in renamed:
        renamed["sources"] = [int(perm[s]) for s in renamed["sources"]]
    if "injection" in renamed:
        permuted = np.empty_like(renamed["injection"])
        permuted[perm] = renamed["injection"]
        renamed["injection"] = permuted
    return renamed


def _canonical_partition(labels: np.ndarray) -> np.ndarray:
    """Rename labels to first-occurrence order, making two labelings
    comparable as partitions of the index set."""
    first: Dict[float, int] = {}
    out = np.empty(labels.size, dtype=np.int64)
    for i, label in enumerate(labels):
        out[i] = first.setdefault(float(label), len(first))
    return out


def _run(engine_name, machine, graph, algo, kwargs):
    program = make_program(algo, graph, **kwargs)
    engine = make_engine(engine_name, machine)
    return engine.run(graph, program, graph_name="metamorphic").states


def relabel_invariance(
    graph: DiGraphCSR,
    algo: str,
    engine_name: str = "digraph",
    seed: int = 7,
    machine: Optional[MachineSpec] = None,
) -> CheckResult:
    """Permute vertex ids; the permuted run must equal the permuted
    original result."""
    name = f"metamorphic.{algo}.{engine_name}.relabel"
    machine = machine or SCALED_MACHINE
    n = graph.num_vertices
    if n == 0 and algo in SOURCE_ALGORITHMS:
        return CheckResult(
            name=name, passed=True, detail="skipped: no source vertex"
        )
    perm = np.random.default_rng(seed).permutation(n)
    relabeled = from_edges(
        [
            (int(perm[src]), int(perm[dst]), w)
            for src, dst, w in graph.edges()
        ],
        num_vertices=n,
    )
    kwargs = _base_kwargs(algo, graph)
    try:
        base = _run(engine_name, machine, graph, algo, kwargs)
        permuted = _run(
            engine_name,
            machine,
            relabeled,
            algo,
            _relabel_kwargs(algo, kwargs, perm),
        )
    except ReproError as exc:
        return CheckResult(
            name=name,
            passed=False,
            detail=f"{type(exc).__name__}: {exc}",
        )
    # Pull the permuted result back into original vertex order.
    pulled_back = permuted[perm] if n else permuted
    if algo in PARTITION_ALGORITHMS:
        same = np.array_equal(
            _canonical_partition(base),
            _canonical_partition(pulled_back),
        )
        return CheckResult(
            name=name,
            passed=bool(same),
            detail=(
                "component partitions match"
                if same
                else "component partitions differ under relabeling"
            ),
        )
    band = (
        equivalence_band(make_program(algo, graph, **kwargs), graph)
        if algo in CONTRACTION_ALGORITHMS
        else 0.0
    )
    cmp = states_equivalent(base, pulled_back, band)
    return CheckResult(name=name, passed=cmp.passed, detail=cmp.detail)


def isolated_vertex_invariance(
    graph: DiGraphCSR,
    algo: str,
    engine_name: str = "digraph",
    extra: int = 3,
    machine: Optional[MachineSpec] = None,
) -> CheckResult:
    """Append ``extra`` edge-less vertices; the original vertices'
    results must not move."""
    name = f"metamorphic.{algo}.{engine_name}.isolated-augmentation"
    machine = machine or SCALED_MACHINE
    n = graph.num_vertices
    if n == 0 and algo in SOURCE_ALGORITHMS:
        return CheckResult(
            name=name, passed=True, detail="skipped: no source vertex"
        )
    augmented = from_edges(
        list(graph.edges()), num_vertices=n + extra
    )
    kwargs = _base_kwargs(algo, graph)
    augmented_kwargs = dict(kwargs)
    if "injection" in augmented_kwargs:
        augmented_kwargs["injection"] = _deterministic_injection(
            n + extra
        )
    try:
        base = _run(engine_name, machine, graph, algo, kwargs)
        extended = _run(
            engine_name, machine, augmented, algo, augmented_kwargs
        )
    except ReproError as exc:
        return CheckResult(
            name=name,
            passed=False,
            detail=f"{type(exc).__name__}: {exc}",
        )
    band = (
        equivalence_band(make_program(algo, graph, **kwargs), graph)
        if algo in CONTRACTION_ALGORITHMS and n
        else 0.0
    )
    cmp = states_equivalent(base, extended[:n], band)
    return CheckResult(name=name, passed=cmp.passed, detail=cmp.detail)


def metamorphic_suite(
    graph: DiGraphCSR,
    algo: str,
    engine_names: Sequence[str] = ("digraph",),
    seed: int = 7,
    machine: Optional[MachineSpec] = None,
) -> Tuple[CheckResult, ...]:
    """Both relations for one algorithm across the given engines."""
    results = []
    for engine_name in engine_names:
        results.append(
            relabel_invariance(
                graph, algo, engine_name, seed=seed, machine=machine
            )
        )
        results.append(
            isolated_vertex_invariance(
                graph, algo, engine_name, machine=machine
            )
        )
    return tuple(results)
