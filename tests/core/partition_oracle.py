"""Algorithm 1's walk and the head-to-tail merge as they were first
written, kept as the oracle.

``repro.core.partitioning`` starts each walk step at a per-vertex cursor
past the visited prefix of the successor slice, and tests the merge's
junction and region rules once per extension behind a per-head cursor.
This module keeps the full scans those replaced — every slot of the
slice on every visit, every candidate with every test — so the tests can
hold the cursors to them path for path.
"""

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.partitioning import _walk_regions
from repro.graph.digraph import DiGraphCSR


class ScanWalk:
    """``_Walk`` with the full successor-slice scan per step."""

    def __init__(self, graph, degrees, region, d_max):
        eids = np.arange(graph.num_edges, dtype=np.int64)
        keys = [eids, graph.indices]
        if degrees is not None:
            keys.append(-degrees[graph.indices])
        keys.append(graph.edge_sources())
        order = np.lexsort(keys)
        self.indptr = graph.indptr.tolist()
        self.succ_eid = order.tolist()
        self.succ_dst = graph.indices[order].tolist()
        self.remaining_out = graph.out_degree().tolist()
        self.visited_edge = [False] * graph.num_edges
        self.visit_stamp = [0] * graph.num_vertices
        self.stamp = 0
        self.region = region.tolist() if region is not None else None
        self.d_max = d_max
        self.segments: List[List[int]] = []
        self.vertex_paths: List[List[int]] = []

    def decompose_shard(self, lo, hi, roots):
        for root in roots:
            while self.remaining_out[root]:
                self.stamp += 1
                self._traverse(root, lo, hi)

    def _traverse(self, root, lo, hi):
        indptr, succ_eid, succ_dst = self.indptr, self.succ_eid, self.succ_dst
        remaining_out, visited_edge = self.remaining_out, self.visited_edge
        visit_stamp, region, stamp = self.visit_stamp, self.region, self.stamp
        edges: List[int] = []
        vertices = [root]
        visit_stamp[root] = stamp
        v = root
        while len(edges) < self.d_max:
            best_rank, eid, u = 4, -1, -1
            for k in range(indptr[v], indptr[v + 1]):
                if visited_edge[succ_eid[k]]:
                    continue
                dst = succ_dst[k]
                rank = (2 if visit_stamp[dst] == stamp else 0) + (
                    0 if remaining_out[dst] else 1
                )
                if rank < best_rank:
                    best_rank, eid, u = rank, succ_eid[k], dst
                    if rank == 0:
                        break
            if eid < 0:
                break
            visited_edge[eid] = True
            remaining_out[v] -= 1
            edges.append(eid)
            vertices.append(u)
            if visit_stamp[u] == stamp or not lo <= u < hi:
                break
            if region is not None and region[u] != region[v]:
                break
            visit_stamp[u] = stamp
            v = u
        self.segments.append(edges)
        self.vertex_paths.append(vertices)


def scan_merge_head_to_tail(
    graph: DiGraphCSR,
    vertex_paths: List[List[int]],
    segments: List[List[int]],
    region=None,
    max_edges: Optional[int] = None,
) -> Tuple[List[List[int]], List[List[int]]]:
    """The merge with every test evaluated per candidate."""
    k = len(vertex_paths)
    inner_count: Dict[int, int] = defaultdict(int)
    for vs in vertex_paths:
        for v in vs[1:-1]:
            inner_count[v] += 1

    by_head: Dict[int, List[int]] = defaultdict(list)
    for i, vs in enumerate(vertex_paths):
        by_head[vs[0]].append(i)
    consumed = [False] * k

    in_deg = graph.in_degree().tolist()
    out_deg = graph.out_degree().tolist()
    if region is not None:
        region = region.tolist()

    def may_join(junction):
        if in_deg[junction] > 1 and out_deg[junction] > 1:
            return inner_count[junction] == 0
        return True

    def same_region(a, b):
        if region is None:
            return True
        return region[a[0]] == region[b[-2 if len(b) > 1 else 0]]

    merged_vertices: List[List[int]] = []
    merged_segments: List[List[int]] = []
    order = sorted(range(k), key=lambda i: len(segments[i]))
    for start in order:
        if consumed[start]:
            continue
        consumed[start] = True
        chain_vs = list(vertex_paths[start])
        chain_seg = list(segments[start])
        while True:
            tail = chain_vs[-1]
            candidates = by_head.get(tail, ())
            nxt = None
            for j in candidates:
                if (
                    not consumed[j]
                    and may_join(tail)
                    and same_region(vertex_paths[j], chain_vs)
                    and (
                        max_edges is None
                        or len(chain_seg) + len(segments[j]) <= max_edges
                    )
                ):
                    nxt = j
                    break
            if nxt is None:
                break
            consumed[nxt] = True
            inner_count[tail] += 1
            chain_vs.extend(vertex_paths[nxt][1:])
            chain_seg.extend(segments[nxt])
        merged_vertices.append(chain_vs)
        merged_segments.append(chain_seg)
    return merged_vertices, merged_segments


def scan_walk(graph, d_max, n_workers, degree_greedy, scc_aware):
    """``(vertex_paths, segments, region)`` of the unmerged walk, sharded
    and rooted as ``decompose_into_paths`` does."""
    region = _walk_regions(graph, d_max) if scc_aware else None
    n = graph.num_vertices
    degrees = graph.degree()
    walk = ScanWalk(graph, degrees if degree_greedy else None, region, d_max)
    bounds = np.linspace(0, n, n_workers + 1).astype(np.int64)
    for w in range(n_workers):
        lo, hi = int(bounds[w]), int(bounds[w + 1])
        roots = np.arange(lo, hi, dtype=np.int64)
        if degree_greedy:
            roots = roots[np.argsort(-degrees[roots], kind="stable")]
        walk.decompose_shard(lo, hi, roots.tolist())
    return walk.vertex_paths, walk.segments, region
