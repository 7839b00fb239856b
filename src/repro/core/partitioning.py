"""Path-based graph partitioning — Algorithm 1 of the paper.

The directed graph is decomposed into disjoint hot/cold paths by a
bounded-depth, degree-greedy DFS:

- each worker repeatedly takes a vertex of its shard with unvisited local
  out-edges as the root and walks unvisited edges depth-first, appending
  them to the current path;
- the traversal depth is bounded by ``D_MAX`` (default 16, the paper's
  value) so path lengths are not too skewed;
- among unvisited successors the **highest-degree** one is chosen first, so
  edges between high-degree vertices line up in the same *hot* path;
- a path ends when the walk reaches an already-visited vertex, an exhausted
  vertex, a non-local vertex, or the depth bound.

A second pass merges short paths head-to-tail to raise the average path
length, honoring the paper's constraint: if both the in-degree and the
out-degree of the junction vertex exceed one, the merge is allowed only
when the junction is not an *inner* vertex of another path (keeping paths
intersecting at endpoints only, so fewer paths depend on each other).

``n_workers`` shards the vertex set into contiguous ranges, each worker
owning its vertices' out-edges — the paper's "each thread only divides its
local subgraph" parallelization. The result is deterministic for a given
``(graph, n_workers)``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import PartitioningError
from repro.graph.digraph import DiGraphCSR
from repro.core.paths import Path, PathSet

#: The paper's default traversal-depth bound.
D_MAX = 16

#: Modeled CPU cost per edge for preprocessing-time accounting (Fig. 8/17):
#: a tuned CPU path-partitioner touches each edge a small constant number
#: of times; 20 ns/edge per thread is in line with the paper's seconds-level
#: preprocessing on billion-edge graphs.
CPU_SECONDS_PER_EDGE = 2e-8


def decompose_into_paths(
    graph: DiGraphCSR,
    d_max: int = D_MAX,
    n_workers: int = 1,
    merge_short_paths: bool = True,
    hot_fraction: float = 0.1,
    degree_greedy: bool = True,
    scc_aware: bool = True,
) -> PathSet:
    """Run Algorithm 1 (+ merging + hot classification) on ``graph``.

    Parameters
    ----------
    d_max:
        Traversal-depth bound (paper default 16).
    n_workers:
        CPU shards; each worker owns the out-edges of a contiguous vertex
        range (Fig. 17 sweeps this).
    merge_short_paths:
        Enable the head-to-tail merge pass.
    hot_fraction:
        Fraction of paths (by average vertex degree) classified hot.
    degree_greedy:
        Visit highest-degree successors first (disable for the hot-path
        ablation benchmark).
    scc_aware:
        End every path at SCC-region boundaries of the vertex graph. Two
        long paths interleaving inside an *acyclic* region would otherwise
        read and write each other's vertices mutually, welding the path
        dependency graph into one giant SCC-vertex and erasing the
        topological order that Observation 2's one-update savings rest on.
        Confining each path to one vertex-SCC region keeps path-level
        cycles inside vertex-level cycles, matching the paper's reported
        giant-SCC-vertex range (3.5%-89% of paths, tracking the graph's
        own SCC structure).
    """
    if d_max < 1:
        raise PartitioningError("d_max must be >= 1")
    if n_workers < 1:
        raise PartitioningError("n_workers must be >= 1")
    if not 0.0 <= hot_fraction <= 1.0:
        raise PartitioningError("hot_fraction must be in [0, 1]")

    region = _walk_regions(graph, d_max) if scc_aware else None

    n = graph.num_vertices
    degrees = graph.degree()
    walk = _Walk(graph, degrees if degree_greedy else None, region, d_max)
    bounds = np.linspace(0, n, n_workers + 1).astype(np.int64)
    for w in range(n_workers):
        lo, hi = int(bounds[w]), int(bounds[w + 1])
        # Roots in descending degree order: hot vertices start hot paths.
        roots = np.arange(lo, hi, dtype=np.int64)
        if degree_greedy:
            roots = roots[np.argsort(-degrees[roots], kind="stable")]
        walk.decompose_shard(lo, hi, roots.tolist())

    vertex_paths, segments = walk.vertex_paths, walk.segments
    if sum(map(len, segments)) != graph.num_edges:
        raise PartitioningError("decomposition failed to cover all edges")

    if merge_short_paths:
        vertex_paths, segments = _merge_head_to_tail(
            graph, vertex_paths, segments, region, max_edges=d_max
        )

    paths = [
        Path(path_id=i, vertices=tuple(vs), edge_ids=tuple(seg))
        for i, (vs, seg) in enumerate(zip(vertex_paths, segments))
    ]
    path_set = PathSet(graph=graph, paths=paths, d_max=d_max)
    path_set.hot_path_ids = _classify_hot(path_set, hot_fraction)
    return path_set


def modeled_preprocess_seconds(
    graph: DiGraphCSR, n_workers: int, dependency_vertices: int = 0
) -> float:
    """Model CPU preprocessing time for Fig. 8 / Fig. 17.

    One full traversal of the original graph (sharded over workers) plus
    one traversal of the much smaller path dependency graph, per the
    paper's cost argument ("traversing the original graph for exactly once
    ... and the dependency graph once").
    """
    per_worker_edges = graph.num_edges / max(n_workers, 1)
    # One pass over the dependency graph (its vertex count is a small
    # fraction of the original graph's — the paper reports 3.4%-9.1%).
    dependency_cost = dependency_vertices / max(n_workers, 1)
    return CPU_SECONDS_PER_EDGE * (per_worker_edges + dependency_cost)


def _walk_regions(graph: DiGraphCSR, d_max: int) -> np.ndarray:
    """Region labels that bound path-level dependency cycles.

    Two long paths interleaving through a region can read and write each
    other's vertices mutually, welding the path dependency graph into one
    giant SCC-vertex regardless of the underlying graph's structure. To
    bound that, walks never cross region boundaries, where a region is:

    - one multi-vertex SCC of the vertex graph (its cycles weld paths
      anyway — confining them there is free), or
    - a *band* of consecutive condensation layers of singleton SCCs.
      Within a band, paths still grow up to the band width; across bands
      all dependencies follow the layer order, so the path DAG sketch
      keeps at least ``layers / band`` topological levels.

    The band width is half the traversal depth bound: deep enough for the
    paper's path lengths, narrow enough to retain layered structure.
    """
    from repro.graph.scc import condensation
    from repro.graph.traversal import dag_layers

    cond = condensation(graph)
    layers = dag_layers(cond.dag)
    band_width = max(2, d_max // 2)
    num_components = cond.num_components
    # Multi-vertex SCCs keep their own region ids; singleton layers band
    # together. Offset bands past the component-id space so ids never
    # collide.
    label = np.where(
        cond.component_sizes() > 1,
        np.arange(num_components, dtype=np.int64),
        num_components + layers // band_width,
    )
    return label[cond.labels]


# ----------------------------------------------------------------------
# Algorithm 1 core
# ----------------------------------------------------------------------
class _Walk:
    """Algorithm 1's traversal state, shared by every shard.

    All per-step reads are O(1) lookups in plain lists built once from
    the CSR arrays:

    - ``unvisited[v]`` holds ``v``'s unvisited out-edge ids in its
      *static* preference order — hottest destination first, then lowest
      destination id, then lowest edge id — from one ``np.lexsort``. A
      visited edge leaves the list, so a step scans only what it may take,
      and "is this successor exhausted" is "is its list empty";
    - ``dead[v]`` counts the leading edges of ``unvisited[v]`` whose
      successor is exhausted. Exhaustion is permanent, so the count only
      grows, except when a step takes an edge from inside that prefix;
    - ``head[e]`` is edge ``e``'s destination.
    """

    def __init__(
        self,
        graph: DiGraphCSR,
        degrees: Optional[np.ndarray],
        region: Optional[np.ndarray],
        d_max: int,
    ) -> None:
        """``degrees`` ranks destinations hottest first (``None``: by id
        only); ``region`` confines walks (``None``: unconfined)."""
        eids = np.arange(graph.num_edges, dtype=np.int64)
        keys = [eids, graph.indices]
        if degrees is not None:
            keys.append(-degrees[graph.indices])
        keys.append(graph.edge_sources())
        order = np.lexsort(keys).tolist()
        indptr = graph.indptr.tolist()
        self.unvisited = [
            order[indptr[v] : indptr[v + 1]] for v in range(graph.num_vertices)
        ]
        self.dead = [0] * graph.num_vertices
        self.head = graph.indices.tolist()
        # Stamp 0 means "never visited"; every traversal gets a fresh one.
        self.visit_stamp = [0] * graph.num_vertices
        self.stamp = 0
        self.region = region.tolist() if region is not None else None
        self.d_max = d_max
        self.segments: List[List[int]] = []      # edge ids per path
        self.vertex_paths: List[List[int]] = []  # vertices per path

    def decompose_shard(self, lo: int, hi: int, roots: List[int]) -> None:
        """Decompose the out-edges owned by vertices ``[lo, hi)``.

        Vertex *visited* marks are **per traversal** (one root invocation
        of GRAPHP): they only prevent a single traversal from looping, so
        later traversals may pass through the same vertices along
        different (still edge-disjoint) paths. This is what lets walks
        keep consuming unvisited edges and is required to reach the
        paper's reported average path lengths (3.5-10.9) — with a single
        global visited mark every edge into an already-seen vertex would
        become its own length-1 path. Implemented with traversal-id
        stamps so no clearing is needed.
        """
        for root in roots:
            while self.unvisited[root]:
                self.stamp += 1
                self._traverse(root, lo, hi)

    def _traverse(self, root: int, lo: int, hi: int) -> None:
        """Grow one path from ``root``: GRAPHP(root, p, 0).

        The walk follows the best unvisited out-edge (lines 4-9), bounded
        by ``d_max`` (line 3). Among the static preference order, edges
        rank by ``(on the current path, exhausted)``: a successor not yet
        on this path beats one that is, and one that still has unvisited
        out-edges of its own beats an exhausted one — hub vertices
        attract every walk and drain their out-edges quickly, so without
        this dead-end avoidance most walks funnel into a drained hub
        after one hop and the average path length collapses (far below
        the paper's 3.5-10.9).

        The visited marks only stop the *current path* from looping: a
        walk that reaches an on-path vertex takes that closing edge and
        ends there (lines 12-14 — the junction becomes the path's tail,
        possibly closing a cycle). Walks also end at non-local vertices
        (line 4's local-subgraph restriction) and at vertices with no
        unvisited out-edges.
        """
        unvisited, head, dead = self.unvisited, self.head, self.dead
        visit_stamp, region, stamp = self.visit_stamp, self.region, self.stamp
        edges: List[int] = []
        vertices = [root]
        visit_stamp[root] = stamp
        v = root
        d_max = self.d_max
        while len(edges) < d_max:
            # First unvisited edge of the best rank in the static order.
            # The dead prefix ranks 1 or 3, so the search starts past it.
            out = unvisited[v]
            size = len(out)
            d = dead[v]
            while d < size and not unvisited[head[out[d]]]:
                d += 1
            best_rank, best, u = 4, -1, -1
            for k in range(d, size):
                dst = head[out[k]]
                rank = (2 if visit_stamp[dst] == stamp else 0) + (
                    0 if unvisited[dst] else 1
                )
                if rank < best_rank:
                    best_rank, best, u = rank, k, dst
                    if rank == 0:
                        break
            if best_rank and d:
                # No rank-0 edge: a rank-1 edge in the prefix comes before
                # anything after it, and failing one, the prefix's first
                # edge (rank 3) beats only a rank 3 after it.
                for k in range(d):
                    if visit_stamp[head[out[k]]] != stamp:
                        best_rank, best, u = 1, k, head[out[k]]
                        break
                else:
                    if best_rank >= 3:
                        best_rank, best, u = 3, 0, head[out[0]]
            if best < 0:
                break
            dead[v] = d - 1 if best < d else d
            edges.append(out.pop(best))
            vertices.append(u)
            if visit_stamp[u] == stamp or not lo <= u < hi:
                break  # path ends at an on-path or non-local vertex
            if region is not None and region[u] != region[v]:
                break  # SCC-region boundary: the crossing edge ends the path
            visit_stamp[u] = stamp
            v = u
        self.segments.append(edges)
        self.vertex_paths.append(vertices)


# ----------------------------------------------------------------------
# head-to-tail merging
# ----------------------------------------------------------------------
def _merge_head_to_tail(
    graph: DiGraphCSR,
    vertex_paths: List[List[int]],
    segments: List[List[int]],
    region=None,
    max_edges: Optional[int] = None,
) -> Tuple[List[List[int]], List[List[int]]]:
    """Merge short paths head-to-tail for a larger average length.

    Maintains the paper's constraint: a junction vertex with in-degree > 1
    and out-degree > 1 may only join two paths if it is not an inner
    vertex of any (other) path. ``max_edges`` caps merged chains so the
    ``D_MAX`` depth bound survives merging (path lengths stay unskewed —
    the bound's whole point — and the invariant stays machine-checkable).
    """
    k = len(vertex_paths)
    inner_count = [0] * graph.num_vertices
    for vs in vertex_paths:
        for v in vs[1:-1]:
            inner_count[v] += 1

    # Each head's paths in descending id order: the lowest unconsumed
    # candidate is at the end, and consumed ones are popped off it.
    by_head: Dict[int, List[int]] = defaultdict(list)
    for i in reversed(range(k)):
        by_head[vertex_paths[i][0]].append(i)
    consumed = [False] * k

    in_deg = graph.in_degree().tolist()
    out_deg = graph.out_degree().tolist()
    if region is not None:
        region = region.tolist()

    merged_vertices: List[List[int]] = []
    merged_segments: List[List[int]] = []
    # Shorter paths first so fragments chain up before long paths lock
    # junction vertices as inner vertices.
    order = sorted(range(k), key=lambda i: len(segments[i]))
    for start in order:
        if consumed[start]:
            continue
        consumed[start] = True
        # A path that joins nothing (most of them) is returned as is; the
        # first join copies it, since the input lists are the caller's.
        chain_vs, chain_seg = vertex_paths[start], segments[start]
        while True:
            tail = chain_vs[-1]
            # Every candidate's head is ``tail``, so the junction rule and
            # the region rule are one test per extension. SCC-aware mode
            # never re-joins what the walk kept apart: a merge across
            # region boundaries would recreate the cross-region dependency
            # cycles the decomposition avoided.
            if (
                in_deg[tail] > 1 and out_deg[tail] > 1 and inner_count[tail]
            ) or (
                region is not None
                and len(chain_vs) > 1
                and region[tail] != region[chain_vs[-2]]
            ):
                break
            candidates = by_head.get(tail, [])
            while candidates and consumed[candidates[-1]]:
                candidates.pop()
            nxt = None
            for j in reversed(candidates):
                if not consumed[j] and (
                    max_edges is None
                    or len(chain_seg) + len(segments[j]) <= max_edges
                ):
                    nxt = j
                    break
            if nxt is None:
                break
            consumed[nxt] = True
            # The junction becomes an inner vertex of the merged path.
            inner_count[tail] += 1
            if chain_seg is segments[start]:
                chain_vs, chain_seg = list(chain_vs), list(chain_seg)
            chain_vs.extend(vertex_paths[nxt][1:])
            chain_seg.extend(segments[nxt])
        merged_vertices.append(chain_vs)
        merged_segments.append(chain_seg)
    return merged_vertices, merged_segments


# ----------------------------------------------------------------------
# hot/cold classification
# ----------------------------------------------------------------------
def _classify_hot(path_set: PathSet, hot_fraction: float) -> frozenset:
    """Mark the top ``hot_fraction`` of paths by average vertex degree."""
    if not path_set.paths or hot_fraction == 0.0:
        return frozenset()
    layout = path_set.layout
    # Same value as ``Path.average_degree``: an exact integer sum, one
    # rounding in the division.
    avg_degrees = (
        np.add.reduceat(
            path_set.graph.degree()[layout.vertices], layout.starts
        )
        / layout.lengths
    )
    count = max(1, int(round(hot_fraction * path_set.num_paths)))
    hot = np.argsort(-avg_degrees, kind="stable")[:count]
    return frozenset(int(i) for i in hot)
