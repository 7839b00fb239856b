"""Strongly connected components and condensation.

The paper's preprocessing (Section 3.2.1) contracts the SCCs of the *path
dependency graph* into SCC-vertices with Tarjan's algorithm, run first per
CPU-thread subgraph and then globally. This module provides:

- :func:`strongly_connected_components` — iterative Tarjan (no recursion
  limit problems on long paths),
- :func:`condensation` — the DAG sketch obtained by contracting SCCs,
- :func:`parallel_scc` — the paper's two-phase sharded variant: local SCCs
  per vertex shard, then a global pass over the contracted graph. Produces
  the same components as the direct algorithm (verified by tests), while
  exposing an ``n_workers`` knob for the Fig. 17 preprocessing-scaling
  experiment,
- :func:`scc_statistics` — giant-SCC fraction and the one-update vertex
  fraction of Observation 2 / Fig. 2(d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraphCSR


def strongly_connected_components(graph: DiGraphCSR) -> np.ndarray:
    """Tarjan SCC labels, iterative formulation.

    Returns an array mapping each vertex to a component id in
    ``0..num_components-1``. Ids are assigned in the order components are
    completed, which (a property of Tarjan) is a *reverse topological*
    order of the condensation: if SCC ``a`` can reach SCC ``b`` (a != b)
    then ``label_of_a > label_of_b``.
    """
    n = graph.num_vertices
    # Plain lists: the loop below reads and writes single elements, which
    # costs several times more through numpy scalars.
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    labels = [-1] * n
    stack: List[int] = []
    cursor = indptr[:n]
    next_index = 0
    next_label = 0

    for root in range(n):
        if index[root] != -1:
            continue
        # The work stack holds the DFS branch; ``cursor[v]`` is the next
        # edge offset of ``v`` to explore.
        work = [root]
        while work:
            v = work[-1]
            if index[v] == -1:
                index[v] = lowlink[v] = next_index
                next_index += 1
                stack.append(v)
                on_stack[v] = True
            pos, end = cursor[v], indptr[v + 1]
            low = lowlink[v]
            advanced = False
            while pos < end:
                u = indices[pos]
                pos += 1
                if index[u] == -1:
                    work.append(u)
                    advanced = True
                    break
                if on_stack[u] and index[u] < low:
                    low = index[u]
            cursor[v] = pos
            lowlink[v] = low
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1]
                if low < lowlink[parent]:
                    lowlink[parent] = low
            if low == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    labels[w] = next_label
                    if w == v:
                        break
                next_label += 1
    return np.asarray(labels, dtype=np.int64)


@dataclass(frozen=True)
class Condensation:
    """The DAG sketch of a graph: one node per SCC.

    Attributes
    ----------
    labels:
        SCC id per original vertex.
    dag:
        The condensation graph (deduplicated edges, guaranteed acyclic).
    members:
        Original vertices of each SCC, in ascending vertex order.
    """

    labels: np.ndarray
    dag: DiGraphCSR
    members: Tuple[Tuple[int, ...], ...]

    @property
    def num_components(self) -> int:
        return self.dag.num_vertices

    def component_sizes(self) -> np.ndarray:
        return np.asarray([len(m) for m in self.members], dtype=np.int64)

    def giant_component(self) -> int:
        """Id of the largest SCC."""
        return int(np.argmax(self.component_sizes()))


def _contract(
    graph: DiGraphCSR, labels: np.ndarray, num_components: int
) -> DiGraphCSR:
    """The graph over ``labels`` ids: one edge per distinct pair of
    different labels joined by an edge of ``graph``, a component's
    successors in the order the edges first reach them."""
    src, dst = labels[graph.edge_sources()], labels[graph.indices]
    cross = src != dst
    return (
        GraphBuilder(num_vertices=num_components, deduplicate=True)
        .add_edge_arrays(src[cross], dst[cross])
        .build()
    )


def component_members(
    labels: np.ndarray, num_components: int
) -> Tuple[Tuple[int, ...], ...]:
    """Vertices grouped by label, ascending within each component."""
    by_label = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels, minlength=num_components)).tolist()
    return tuple(
        tuple(by_label[start:end]) for start, end in zip([0] + ends, ends)
    )


def condensation(graph: DiGraphCSR) -> Condensation:
    """Contract SCCs into a DAG sketch (Section 3.2.1)."""
    labels = strongly_connected_components(graph)
    num_components = int(labels.max()) + 1 if labels.size else 0
    return Condensation(
        labels=labels,
        dag=_contract(graph, labels, num_components),
        members=component_members(labels, num_components),
    )


def parallel_scc(graph: DiGraphCSR, n_workers: int = 1) -> np.ndarray:
    """Two-phase sharded SCC, mirroring the paper's parallel preprocessing.

    Phase 1: split vertices into ``n_workers`` contiguous shards; run Tarjan
    on each shard's *induced local subgraph* (edges whose both endpoints lie
    in the shard), contracting local SCCs. Phase 2: run Tarjan on the
    contracted graph (local SCCs as vertices plus all cross-shard edges) to
    produce global components.

    The result is the same partition of vertices into SCCs as
    :func:`strongly_connected_components` (component *ids* may differ); the
    two phases mirror lines "each CPU thread uses tarjan algorithm to find
    local SCCs ... then tarjan algorithm is used again" of Section 3.2.1.
    """
    if n_workers < 1:
        raise GraphError("n_workers must be >= 1")
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n_workers == 1:
        return strongly_connected_components(graph)

    bounds = np.linspace(0, n, n_workers + 1).astype(np.int64)
    local_label = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for w in range(n_workers):
        lo, hi = int(bounds[w]), int(bounds[w + 1])
        if lo == hi:
            continue
        shard = list(range(lo, hi))
        sub = graph.subgraph_vertices(shard)
        labels = strongly_connected_components(sub)
        local_label[lo:hi] = labels + next_id
        next_id += int(labels.max()) + 1 if labels.size else 0

    # Phase 2: contract local SCCs, keep every edge between distinct ones.
    contracted = _contract(graph, local_label, next_id)
    global_of_local = strongly_connected_components(contracted)
    return global_of_local[local_label]


@dataclass(frozen=True)
class SCCStatistics:
    """Summary statistics used by Observation 2 and Fig. 2(d)."""

    num_components: int
    giant_scc_vertices: int
    giant_scc_fraction: float
    one_update_fraction: float
    """Fraction of vertices in singleton, non-self-loop SCCs: processed in
    topological order they converge after exactly one update."""


def scc_statistics(graph: DiGraphCSR) -> SCCStatistics:
    """Compute the SCC statistics the paper reports for its six graphs."""
    cond = condensation(graph)
    sizes = cond.component_sizes()
    if sizes.size == 0:
        return SCCStatistics(0, 0, 0.0, 0.0)
    giant = int(sizes.max())
    # A vertex needs only one update (in topological processing) iff its SCC
    # is a singleton without a self-loop: no cycle passes through it.
    singleton_vertices = 0
    for comp_id, members in enumerate(cond.members):
        if len(members) == 1:
            v = members[0]
            if not graph.has_edge(v, v):
                singleton_vertices += 1
    n = graph.num_vertices
    return SCCStatistics(
        num_components=cond.num_components,
        giant_scc_vertices=giant,
        giant_scc_fraction=giant / n if n else 0.0,
        one_update_fraction=singleton_vertices / n if n else 0.0,
    )
