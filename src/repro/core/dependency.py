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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.graph.builder import sorted_unique
from repro.graph.digraph import DiGraphCSR
from repro.graph.scc import condensation
from repro.graph.traversal import dag_layers
from repro.kernels.segment import batch_segments
from repro.core.paths import PathSet, flatten_vertices


@dataclass(frozen=True)
class DependencyDAG:
    """The dependency graph of paths and its contracted DAG sketch.

    Attributes
    ----------
    dependency_graph:
        Directed graph over path ids (``p_i -> p_j`` as defined above).
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

    dependency_graph: DiGraphCSR
    scc_of_path: np.ndarray
    dag: DiGraphCSR
    members: Tuple[Tuple[int, ...], ...]
    layer_of_scc: np.ndarray

    @classmethod
    def from_edges(
        cls, num_paths: int, src: np.ndarray, dst: np.ndarray
    ) -> "DependencyDAG":
        """The dependency graph with edges ``src[i] -> dst[i]`` (any
        order, repeats allowed), its DAG sketch and the sketch's layers.

        Each path's successors are stored ascending, so equal edge sets
        give equal objects however they were produced — the streaming
        repairer's patched edge set and a from-scratch build alike.
        """
        base = max(num_paths, 1)
        keys = sorted_unique(
            np.asarray(src, dtype=np.int64) * base
            + np.asarray(dst, dtype=np.int64)
        )
        indptr = np.zeros(num_paths + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(keys // base, minlength=num_paths), out=indptr[1:]
        )
        dependency_graph = DiGraphCSR(indptr, keys % base)
        cond = condensation(dependency_graph)
        return cls(
            dependency_graph=dependency_graph,
            scc_of_path=cond.labels,
            dag=cond.dag,
            members=cond.members,
            layer_of_scc=dag_layers(cond.dag),
        )

    @property
    def num_paths(self) -> int:
        return self.dependency_graph.num_vertices

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
    """Construct the dependency graph, DAG sketch, and layers for a
    path decomposition."""
    num_paths = path_set.num_paths
    if num_paths == 0:
        empty = np.empty(0, dtype=np.int64)
        return DependencyDAG.from_edges(0, empty, empty)
    vertex, lengths = flatten_vertices(path_set.paths)
    path_of = np.repeat(np.arange(num_paths, dtype=np.int64), lengths)
    ends = np.cumsum(lengths)
    is_head = np.zeros(vertex.size, dtype=bool)
    is_head[ends - lengths] = True
    is_tail = np.zeros(vertex.size, dtype=bool)
    is_tail[ends - 1] = True

    def incidence(keep: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct (vertex, path) pairs of the kept positions, sorted."""
        keys = sorted_unique(vertex[keep] * num_paths + path_of[keep])
        return keys // num_paths, keys % num_paths

    # A path writes every vertex it enters (non-head positions) and reads
    # every vertex it leaves (non-tail positions).
    written, writer = incidence(~is_head)
    read, reader = incidence(~is_tail)

    # Per vertex, writers x readers: each writer entry is paired with
    # every entry of its vertex's slice of the (vertex-sorted) readers.
    readers_at = np.zeros(path_set.graph.num_vertices + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(read, minlength=readers_at.size - 1), out=readers_at[1:]
    )
    positions, offsets = batch_segments(readers_at, written)
    src = np.repeat(writer, np.diff(offsets))
    dst = reader[positions]
    distinct = src != dst
    return DependencyDAG.from_edges(num_paths, src[distinct], dst[distinct])


def scc_vertices_by_layer(dag: DependencyDAG) -> List[List[int]]:
    """SCC-vertex ids grouped by layer, ascending.

    Within a layer, SCC-vertices are ordered by descending total path
    count of their *successor* SCC-vertices — the paper's tie-break so
    that finishing an SCC-vertex unlocks the most downstream work
    (Section 3.2.2, "descending order according to the total number of
    paths in their successive active SCC-vertices").
    """
    layers: Dict[int, List[int]] = {}
    for scc in range(dag.num_scc_vertices):
        layers.setdefault(int(dag.layer_of_scc[scc]), []).append(scc)

    def successor_path_count(scc: int) -> int:
        return sum(
            len(dag.members[int(succ)]) for succ in dag.scc_successors(scc)
        )

    result = []
    for layer in sorted(layers):
        members = layers[layer]
        members.sort(key=lambda s: (-successor_path_count(s), s))
        result.append(members)
    return result
