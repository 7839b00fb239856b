"""Incremental path repair for mutation batches.

A mutation batch touches a handful of edges; re-running Algorithm 1
over the whole graph for that is exactly the cost streaming must avoid.
:class:`PathRepairer` keeps the path decomposition and its occurrence
maps alive across batches and repairs only what a batch touches:

- **splits** — a path containing deleted edges is cut into its maximal
  surviving fragments (each still a connected path, still within
  ``D_MAX``);
- **extensions** — an inserted edge first tries to extend an existing
  path at its tail (then head), honoring the paper's junction
  constraint: a junction with in-degree > 1 *and* out-degree > 1 may
  only join paths while it is not an inner vertex of another path;
- **merges** — small touched paths (fragments, singletons) are chained
  head-to-tail under the same junction + ``D_MAX`` rules, so repair does
  not slowly fragment the decomposition;
- **dependency DAG** — :func:`~repro.core.dependency.build_dependency_dag`
  over the repaired paths: equal to a from-scratch build by construction,
  and linear in the total path length, like the renumbering itself.

Hot/cold classification is sticky: untouched paths keep their class;
touched and new paths are classified against the threshold the initial
decomposition implied (the minimum average degree among its hot paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.dependency import DependencyDAG, build_dependency_dag
from repro.core.partitioning import CPU_SECONDS_PER_EDGE, D_MAX
from repro.core.paths import PathSet
from repro.errors import StreamingError
from repro.graph.digraph import DiGraphCSR
from repro.streaming.mutations import AppliedBatch

_Record = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (vertices, edge_ids)


@dataclass(frozen=True)
class RepairResult:
    """One batch's repaired decomposition + repair statistics."""

    path_set: PathSet
    dag: DependencyDAG
    paths_split: int        #: paths cut apart by edge deletions
    fragments_added: int    #: surviving fragments re-registered
    paths_extended: int     #: paths grown by an inserted edge
    paths_merged: int       #: head-to-tail merges among touched paths
    paths_created: int      #: new singleton paths for unplaceable inserts
    paths_removed: int      #: paths that vanished without a fragment
    touched_edge_work: int  #: edges handled by repair (modeled cost basis)
    modeled_seconds: float  #: modeled CPU time of the repair

    @property
    def paths_repaired(self) -> int:
        """Total repair operations — the ``paths_repaired`` counter."""
        return (
            self.paths_split
            + self.fragments_added
            + self.paths_extended
            + self.paths_merged
            + self.paths_created
            + self.paths_removed
        )


class PathRepairer:
    """Evolves a :class:`~repro.core.paths.PathSet` across mutation batches.

    Paths carry stable *internal* ids for the repairer's lifetime; the
    externally visible ``PathSet`` renumbers them (ascending internal
    id) per batch, so the occurrence maps never need rekeying.
    """

    def __init__(self, path_set: PathSet, n_workers: int = 1) -> None:
        self.graph = path_set.graph
        self.d_max = path_set.d_max or D_MAX
        self.n_workers = max(int(n_workers), 1)
        self._paths: Dict[int, _Record] = {}
        self._next_id = 0
        self._readers: Dict[int, Set[int]] = {}
        self._inner: Dict[int, int] = {}
        self._by_head: Dict[int, Set[int]] = {}
        self._by_tail: Dict[int, Set[int]] = {}
        self._hot: Set[int] = set()
        self._touched_edge_work = 0
        for path_id, vertices in enumerate(path_set.sequences):
            pid = self._add_path(
                vertices, path_set.edges_of(path_id).tolist()
            )
            if path_set.is_hot(path_id):
                self._hot.add(pid)
        self._hot_threshold = self._initial_hot_threshold(path_set)
        self._touched_edge_work = 0  # init registration is not repair work

    # ------------------------------------------------------------------
    # bookkeeping primitives
    # ------------------------------------------------------------------
    def _add_path(
        self, vertices: Tuple[int, ...], edge_ids: Tuple[int, ...]
    ) -> int:
        pid = self._next_id
        self._next_id += 1
        self._paths[pid] = (tuple(vertices), tuple(edge_ids))
        self._by_head.setdefault(vertices[0], set()).add(pid)
        self._by_tail.setdefault(vertices[-1], set()).add(pid)
        for v in vertices[1:-1]:
            self._inner[v] = self._inner.get(v, 0) + 1
        for v in set(vertices[:-1]):
            self._readers.setdefault(v, set()).add(pid)
        self._touched_edge_work += len(edge_ids)
        return pid

    def _remove_path(self, pid: int) -> _Record:
        vertices, edge_ids = self._paths.pop(pid)
        self._by_head[vertices[0]].discard(pid)
        self._by_tail[vertices[-1]].discard(pid)
        for v in vertices[1:-1]:
            self._inner[v] -= 1
        for v in set(vertices[:-1]):
            self._readers[v].discard(pid)
        self._hot.discard(pid)
        self._touched_edge_work += len(edge_ids)
        return vertices, edge_ids

    def _initial_hot_threshold(self, path_set: PathSet) -> float:
        if not path_set.hot_path_ids:
            return float("inf")
        hot = np.fromiter(path_set.hot_path_ids, dtype=np.int64)
        return float(path_set.average_degrees[hot].min())

    def _may_join(self, junction: int, graph: DiGraphCSR) -> bool:
        """The paper's junction constraint, against the *new* graph."""
        if graph.in_degree(junction) > 1 and graph.out_degree(junction) > 1:
            return self._inner.get(junction, 0) == 0
        return True

    # ------------------------------------------------------------------
    # batch repair
    # ------------------------------------------------------------------
    def apply(self, applied: AppliedBatch) -> RepairResult:
        """Repair the decomposition for one applied batch."""
        if applied.old_graph is not self.graph:
            raise StreamingError(
                "batch was applied to a different graph than the "
                "repairer is tracking"
            )
        graph = applied.graph
        edge_id_map = applied.edge_id_map
        self._touched_edge_work = 0
        touched: Set[int] = set()
        splits = extended = merged = created = removed = fragments = 0

        # 1. Split paths holding deleted edges into surviving fragments
        #    (fragment edge ids stay in the OLD id space until step 2).
        dead_by_path: Dict[int, Set[int]] = {}
        for old_eid, u, _v in applied.deleted:
            pid = self._find_path_of_edge(u, old_eid)
            dead_by_path.setdefault(pid, set()).add(old_eid)
        pool: List[_Record] = []
        for pid, dead in sorted(dead_by_path.items()):
            vertices, edge_ids = self._remove_path(pid)
            parts = _split_record(vertices, edge_ids, dead)
            if parts:
                splits += 1
            else:
                removed += 1
            pool.extend(parts)

        # 2. Remap every surviving path (and fragment) into the new
        #    edge-id space. Vertex tuples are untouched, so the
        #    occurrence maps stay valid as-is.
        for pid, (vertices, edge_ids) in self._paths.items():
            self._paths[pid] = (
                vertices,
                tuple(int(edge_id_map[e]) for e in edge_ids),
            )
        for i, (vertices, edge_ids) in enumerate(pool):
            pool[i] = (
                vertices,
                tuple(int(edge_id_map[e]) for e in edge_ids),
            )

        # 3. Re-register fragments as paths.
        for vertices, edge_ids in pool:
            touched.add(self._add_path(vertices, edge_ids))
            fragments += 1

        # 4. Place inserted edges: tail-extend, head-extend, else a new
        #    singleton path.
        for new_eid, u, v in applied.inserted:
            pid = self._pick_extension(self._by_tail.get(u), u, graph)
            if pid is not None:
                vertices, edge_ids = self._remove_path(pid)
                touched.discard(pid)
                touched.add(
                    self._add_path(
                        vertices + (v,), edge_ids + (new_eid,)
                    )
                )
                extended += 1
                continue
            pid = self._pick_extension(self._by_head.get(v), v, graph)
            if pid is not None:
                vertices, edge_ids = self._remove_path(pid)
                touched.discard(pid)
                touched.add(
                    self._add_path(
                        (u,) + vertices, (new_eid,) + edge_ids
                    )
                )
                extended += 1
                continue
            touched.add(self._add_path((u, v), (new_eid,)))
            created += 1

        # 5. Merge pass over the touched paths so repair does not slowly
        #    fragment the decomposition (same rules as the preprocessing
        #    merge: junction constraint + D_MAX cap).
        for pid in sorted(touched):
            while pid in self._paths:
                vertices, edge_ids = self._paths[pid]
                tail = vertices[-1]
                candidates = [
                    q
                    for q in self._by_head.get(tail, ())
                    if q != pid
                    and q in touched
                    and len(edge_ids) + len(self._paths[q][1])
                    <= self.d_max
                    and self._may_join(tail, graph)
                ]
                if not candidates:
                    break
                q = min(candidates)
                q_vertices, q_edges = self._remove_path(q)
                self._remove_path(pid)
                touched.discard(q)
                touched.discard(pid)
                pid = self._add_path(
                    vertices + q_vertices[1:], edge_ids + q_edges
                )
                touched.add(pid)
                merged += 1

        # 6. Renumber, and classify the touched paths against the
        #    sticky hot threshold.
        self.graph = graph
        path_set, dag = self._materialize(graph, touched)
        modeled = (
            CPU_SECONDS_PER_EDGE
            * (self._touched_edge_work + path_set.num_paths)
            / self.n_workers
        )
        return RepairResult(
            path_set=path_set,
            dag=dag,
            paths_split=splits,
            fragments_added=fragments,
            paths_extended=extended,
            paths_merged=merged,
            paths_created=created,
            paths_removed=removed,
            touched_edge_work=self._touched_edge_work,
            modeled_seconds=modeled,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _find_path_of_edge(self, src: int, old_eid: int) -> int:
        """The path holding edge ``old_eid`` (whose source is ``src``).

        The edge's source reads (propagates) on that path, so only the
        handful of paths in ``readers[src]`` need scanning.
        """
        for pid in self._readers.get(src, ()):
            if old_eid in self._paths[pid][1]:
                return pid
        raise StreamingError(
            f"edge {old_eid} ({src} ->) is not covered by any path"
        )

    def _pick_extension(
        self, candidates: Optional[Set[int]], junction: int, graph: DiGraphCSR
    ) -> Optional[int]:
        """Smallest eligible path to extend through ``junction``."""
        if not candidates or not self._may_join(junction, graph):
            return None
        eligible = [
            pid
            for pid in candidates
            if len(self._paths[pid][1]) < self.d_max
        ]
        return min(eligible) if eligible else None

    def _materialize(
        self, graph: DiGraphCSR, touched: Set[int]
    ) -> Tuple[PathSet, DependencyDAG]:
        """Renumbered PathSet + its DAG; a touched path turns hot if
        its ``D̄(p)`` reaches the threshold."""
        order = sorted(self._paths)
        external = {pid: i for i, pid in enumerate(order)}
        path_set = PathSet.from_sequences(
            graph,
            [self._paths[pid][0] for pid in order],
            [self._paths[pid][1] for pid in order],
            d_max=self.d_max,
        )
        degrees = path_set.average_degrees
        self._hot.update(
            pid
            for pid in touched
            if degrees[external[pid]] >= self._hot_threshold
        )
        path_set.hot_path_ids = frozenset(
            external[pid] for pid in self._hot if pid in external
        )
        return path_set, build_dependency_dag(path_set)


def _split_record(
    vertices: Tuple[int, ...],
    edge_ids: Tuple[int, ...],
    dead: Set[int],
) -> List[_Record]:
    """Cut a path at its dead edges; keep fragments with >= 1 edge."""
    parts: List[_Record] = []
    start = 0
    for i, eid in enumerate(edge_ids):
        if eid in dead:
            if i > start:
                parts.append(
                    (vertices[start : i + 1], edge_ids[start:i])
                )
            start = i + 1
    if len(edge_ids) > start:
        parts.append((vertices[start:], edge_ids[start:]))
    return parts
