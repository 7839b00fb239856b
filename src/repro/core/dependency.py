"""Path dependency graph, DAG sketch, and layers (Sections 3.1-3.2.2).

Two paths are dependent when one *writes* a vertex the other *reads*:
``p_i -> p_j`` iff some vertex ``v`` lies on both, ``v`` has an in-edge on
``p_i`` (so ``p_i`` produces a new state for ``v``) and an out-edge on
``p_j`` (so ``p_j`` propagates ``v``'s state). Contracting the SCCs of this
dependency graph yields the *DAG sketch* whose nodes — **SCC-vertices** —
are sets of mutually-dependent paths; processing SCC-vertices in
topological layer order means a path is handled only after all paths it
depends on have converged, so most paths are processed exactly once
(Observation 2).

The dependency graph — per vertex, its writers x its readers — is never
built: it is held as the two path <-> vertex incidence lists, and its SCC
ids, sketch and partition lift are derived from those, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.graph.builder import GraphBuilder, first_occurrences, sorted_unique
from repro.graph.digraph import DiGraphCSR
from repro.graph.scc import component_members
from repro.graph.traversal import dag_layers
from repro.core.paths import PathSet


@dataclass(frozen=True)
class DependencyDAG:
    """The dependency graph of paths and its contracted DAG sketch.

    Attributes
    ----------
    writes, reads:
        ``(2, k)`` arrays of the distinct ``(vertex, path)`` pairs where
        the path writes (non-head) / reads (non-tail) the vertex, sorted
        by vertex, then path: ``p_i -> p_j`` iff ``p_i != p_j`` and some
        ``v`` has ``(v, p_i)`` in ``writes`` and ``(v, p_j)`` in ``reads``.
    scc_of_path:
        SCC-vertex id of each path.
    dag:
        The DAG sketch: one node per SCC-vertex, deduplicated edges.
    members:
        Path ids per SCC-vertex.
    layer_of_scc:
        Layer number per SCC-vertex (sources = 0; an SCC-vertex only
        depends on strictly lower layers).
    """

    writes: np.ndarray
    reads: np.ndarray
    scc_of_path: np.ndarray
    dag: DiGraphCSR
    members: Tuple[Tuple[int, ...], ...]
    layer_of_scc: np.ndarray

    @property
    def num_paths(self) -> int:
        return self.scc_of_path.size

    @property
    def num_scc_vertices(self) -> int:
        return self.dag.num_vertices

    def layer_of_path(self, path_id: int) -> int:
        """Layer number of the SCC-vertex containing ``path_id`` — the
        ``L(p)`` term of the Pri(p) scheduling formula."""
        return int(self.layer_of_scc[self.scc_of_path[path_id]])

    def giant_scc_vertex(self) -> int:
        """SCC-vertex with the most paths (the paper's *giant* one, which
        may hold 3.5%-89% of all paths)."""
        sizes = [len(m) for m in self.members]
        return int(np.argmax(sizes))

    def giant_scc_path_fraction(self) -> float:
        """Fraction of all paths inside the giant SCC-vertex."""
        if self.num_paths == 0:
            return 0.0
        return len(self.members[self.giant_scc_vertex()]) / self.num_paths

    def scc_successors(self, scc: int) -> np.ndarray:
        return self.dag.successors(scc)

    def scc_predecessors(self, scc: int) -> np.ndarray:
        return self.dag.predecessors(scc)

    def num_layers(self) -> int:
        if self.layer_of_scc.size == 0:
            return 0
        return int(self.layer_of_scc.max()) + 1


def build_dependency_dag(path_set: PathSet) -> DependencyDAG:
    """Construct the dependency incidence, DAG sketch, and layers for a
    path decomposition."""
    num_paths = path_set.num_paths
    layout = path_set.layout
    vertex, lengths = layout.vertices, layout.lengths
    path_of = layout.path_of_slot
    is_head = np.zeros(vertex.size, dtype=bool)
    is_head[layout.starts] = True
    is_tail = np.zeros(vertex.size, dtype=bool)
    is_tail[layout.starts + lengths - 1] = True
    base = max(num_paths, 1)

    def incidence(keep: np.ndarray) -> np.ndarray:
        """Distinct (vertex, path) pairs of the kept positions, sorted."""
        keys = sorted_unique(vertex[keep] * base + path_of[keep])
        return np.stack((keys // base, keys % base))

    # A path writes every vertex it enters (non-head positions) and reads
    # every vertex it leaves (non-tail positions).
    writes = incidence(~is_head)
    reads = incidence(~is_tail)
    scc_of_path = _tarjan_scc_ids(
        vertex, lengths, reads, path_set.graph.num_vertices
    )
    num_sccs = int(scc_of_path.max()) + 1 if num_paths else 0
    src, dst = lift_edges(writes, reads, scc_of_path, num_sccs)
    dag = GraphBuilder(num_vertices=num_sccs).add_edge_arrays(src, dst).build()
    return DependencyDAG(
        writes=writes,
        reads=reads,
        scc_of_path=scc_of_path,
        dag=dag,
        members=component_members(scc_of_path, num_sccs),
        layer_of_scc=dag_layers(dag),
    )


def _tarjan_scc_ids(
    vertex: np.ndarray, lengths: np.ndarray, reads: np.ndarray, n: int
) -> np.ndarray:
    """SCC id of every path, as Tarjan's algorithm numbers the explicit
    dependency graph (:func:`~repro.graph.scc.strongly_connected_components`:
    roots ``0..P-1``, successors ascending), run through the incidence.

    A path's next tree child is its smallest unvisited successor (those
    before the scan position stay visited): the minimum over the vertices
    ``v`` it writes of ``v``'s smallest unvisited reader, found by a
    forward-only ``cursor[v]``. Through ``v`` only ``first[v]``, the
    earliest-discovered reader of ``v`` still on the stack, can lower a
    low-link: SCCs pop suffixes of the index-ordered stack, so a new
    reader replaces ``first[v]`` only once every earlier one has popped,
    and an on-stack successor indexed below the path outlives the path —
    reading ``first[v]`` at discovery gives Tarjan's low-links, roots and
    labels. Cost O(sum_p |W(p)| * (children(p) + 1) + |reads|).
    """
    num_paths = lengths.size
    count = np.bincount(reads[0], minlength=n)
    # Each vertex's readers, then the sentinel P: never indexed or stacked.
    readers = np.insert(reads[1], np.cumsum(count), num_paths).tolist()
    cursor = (np.cumsum(count) - count + np.arange(n)).tolist()
    on_path, ends = vertex.tolist(), np.cumsum(lengths).tolist()
    starts = [0] + ends[:-1]
    first = [num_paths] * n
    index, on_stack = [-1] * (num_paths + 1), [False] * (num_paths + 1)
    low, labels, stack = [0] * num_paths, [-1] * num_paths, []
    next_index = next_label = 0
    for root in range(num_paths):
        work = [root] if index[root] < 0 else []
        while work:
            p = work[-1]
            written = on_path[starts[p] + 1 : ends[p]]
            if index[p] < 0:
                index[p] = lowest = next_index
                next_index += 1
                stack.append(p)
                on_stack[p] = True
                for v in on_path[starts[p] : ends[p] - 1]:
                    if not on_stack[first[v]]:
                        first[v] = p
                for v in written:
                    f = first[v]
                    if on_stack[f] and index[f] < lowest:
                        lowest = index[f]
                low[p] = lowest
            child = num_paths
            for v in written:
                pos = cursor[v]
                if index[readers[pos]] >= 0:
                    pos += 1
                    while index[readers[pos]] >= 0:
                        pos += 1
                    cursor[v] = pos
                if readers[pos] < child:
                    child = readers[pos]
            if child < num_paths:
                work.append(child)
                continue
            work.pop()
            if work and low[p] < low[work[-1]]:
                low[work[-1]] = low[p]
            if low[p] == index[p]:
                while stack[-1] != p:
                    on_stack[stack[-1]] = False
                    labels[stack.pop()] = next_label
                on_stack[stack.pop()] = False
                labels[p] = next_label
                next_label += 1
    return np.asarray(labels, dtype=np.int64)


def lift_edges(
    writes: np.ndarray, reads: np.ndarray, group_of_path: np.ndarray,
    num_groups: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The dependency edges mapped through ``group_of_path``: each pair
    of different groups once, in the order it first occurs in the explicit
    graph (``p_i``, then ``p_j``, ascending), which contraction and the
    partition lift keep and modeled time depends on. The first ``(p, q)``
    of ``(a, b)`` has ``p`` the smallest group-``a`` writer of every vertex
    it shares with a group-``b`` reader and ``q`` the smallest group-``b``
    reader of those: per vertex, each group's smallest writer and reader.
    """

    def smallest_per_group(incidence: np.ndarray) -> Tuple[np.ndarray, ...]:
        vertex, path = incidence
        group = group_of_path[path]
        first = first_occurrences(vertex * num_groups + group)
        return vertex[first], group[first], path[first]

    w_vertex, a, p = smallest_per_group(writes)
    r_vertex, b, q = smallest_per_group(reads)
    # Pair each writer entry with its vertex's slice of reader entries.
    lo = np.searchsorted(r_vertex, w_vertex)
    count = np.searchsorted(r_vertex, w_vertex, side="right") - lo
    at = np.arange(count.sum()) + np.repeat(lo + count - count.cumsum(), count)
    a, b = np.repeat(a, count), b[at]
    cross = a != b
    pair = (a * num_groups + b)[cross]
    edge = (np.repeat(p * group_of_path.size, count) + q[at])[cross]
    # Per pair its smallest packed (p, q); the pairs in that order.
    by_pair = np.argsort(pair)
    pair, edge = pair[by_pair], edge[by_pair]
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    pair = pair[starts][np.argsort(np.minimum.reduceat(edge, starts))]
    return pair // num_groups, pair % num_groups


def successor_path_counts(dag: DependencyDAG) -> np.ndarray:
    """Per SCC-vertex, the total path count of its successor
    SCC-vertices — the within-layer key of the partition layout, so that
    finishing an SCC-vertex unlocks the most downstream work (Section
    3.2.2, "descending order according to the total number of paths in
    their successive active SCC-vertices").

    One segment sum over the sketch's CSR rows (a running sum, so empty
    rows give 0). The sketch lists each successor once, so this is the
    sum over *distinct* successors.
    """
    sizes = np.bincount(dag.scc_of_path, minlength=dag.num_scc_vertices)
    running = np.zeros(dag.dag.num_edges + 1, dtype=np.int64)
    np.cumsum(sizes[dag.dag.indices], out=running[1:])
    return running[dag.dag.indptr[1:]] - running[dag.dag.indptr[:-1]]
