"""Traversal helpers: BFS levels, DFS orders, topological sort.

These are used by the graph metrics (sampled average distance), the
sequential topological baseline (Fig. 2d), and the dependency-DAG layering
of Section 3.2.2.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import sorted_unique
from repro.graph.digraph import DiGraphCSR

UNREACHED = -1


def bfs_levels(graph: DiGraphCSR, source: int) -> np.ndarray:
    """Hop distance from ``source`` to every vertex (``-1`` if unreached)."""
    return multi_source_levels(graph, [source])[0]


def multi_source_levels(
    graph: DiGraphCSR, sources: Sequence[int]
) -> np.ndarray:
    """Hop levels from each of ``sources``, one row per source.

    Row ``i`` is the hop distance from ``sources[i]`` to every vertex
    (``-1`` if unreached). One level-synchronous sweep serves all rows: a
    frontier entry is a ``(row, vertex)`` pair packed as ``row * n +
    vertex``, and a level expands every row's frontier at once. A vertex's
    hop level does not depend on the order its level is found in, so a
    queue BFS per source gives the same rows. Memory is
    ``O(len(sources) * n)``; callers sweep bounded groups of sources.
    """
    n = graph.num_vertices
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise GraphError(f"source out of range for {n} vertices")
    levels = np.full(sources.size * n, UNREACHED, dtype=np.int64)
    frontier = np.arange(sources.size) * n + sources
    levels[frontier] = 0
    # ``winner[key]`` names the one position of ``reached`` that keeps
    # ``key``: whichever duplicate's write lands last, exactly one
    # position reads its own index back.
    winner = np.empty(levels.size, dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        vertex = frontier % n
        eids, counts = graph.out_edge_slices(vertex)
        reached = np.repeat(frontier - vertex, counts) + graph.indices[eids]
        reached = reached[levels[reached] == UNREACHED]
        positions = np.arange(reached.size)
        winner[reached] = positions
        frontier = reached[winner[reached] == positions]
        levels[frontier] = level
    return levels.reshape(sources.size, n)


def dfs_preorder(graph: DiGraphCSR, source: int) -> List[int]:
    """Iterative DFS preorder from ``source`` (successor order = CSR order)."""
    visited = np.zeros(graph.num_vertices, dtype=bool)
    order: List[int] = []
    stack = [source]
    while stack:
        v = stack.pop()
        if visited[v]:
            continue
        visited[v] = True
        order.append(v)
        # Reverse so the first CSR successor is visited first.
        for u in graph.successors(v)[::-1]:
            if not visited[u]:
                stack.append(int(u))
    return order


def topological_order(graph: DiGraphCSR) -> np.ndarray:
    """Kahn topological order of a DAG.

    Raises
    ------
    GraphError
        If the graph contains a cycle.
    """
    in_deg = graph.in_degree().copy()
    queue = deque(int(v) for v in np.flatnonzero(in_deg == 0))
    order = np.empty(graph.num_vertices, dtype=np.int64)
    filled = 0
    while queue:
        v = queue.popleft()
        order[filled] = v
        filled += 1
        for u in graph.successors(v):
            in_deg[u] -= 1
            if in_deg[u] == 0:
                queue.append(int(u))
    if filled != graph.num_vertices:
        raise GraphError("topological_order called on a cyclic graph")
    return order


def dag_layers(graph: DiGraphCSR) -> np.ndarray:
    """Layer number of each vertex of a DAG: ``layer(v) = 1 + max(layer(pred))``.

    Sources are layer 0. This is the layering used for dependency-aware
    path dispatching (Section 3.2.2): vertices at a layer only depend on
    lower layers.

    A level-synchronous peel: round ``r`` removes every vertex whose
    predecessors were all removed in earlier rounds. A vertex leaves in
    the round after its last predecessor does, so by induction its round
    is ``1 + max`` of its predecessors' rounds — its longest-path layer.

    Raises
    ------
    GraphError
        If the graph contains a cycle (its vertices are never peeled).
    """
    remaining = graph.in_degree().copy()
    layers = np.full(graph.num_vertices, UNREACHED, dtype=np.int64)
    frontier = np.flatnonzero(remaining == 0)
    layer = 0
    while frontier.size:
        layers[frontier] = layer
        layer += 1
        eids, _ = graph.out_edge_slices(frontier)
        targets = graph.indices[eids]
        np.subtract.at(remaining, targets, 1)
        frontier = sorted_unique(targets[remaining[targets] == 0])
    if (layers == UNREACHED).any():
        raise GraphError("dag_layers called on a cyclic graph")
    return layers


def is_reachable(graph: DiGraphCSR, source: int, target: int) -> bool:
    """Whether ``target`` is reachable from ``source``."""
    if source == target:
        return True
    return bfs_levels(graph, source)[target] != UNREACHED


def reachable_set(graph: DiGraphCSR, source: int) -> np.ndarray:
    """Vertices reachable from ``source`` (including itself)."""
    return np.flatnonzero(bfs_levels(graph, source) != UNREACHED)


def connected_weakly(graph: DiGraphCSR) -> np.ndarray:
    """Weakly-connected component label for each vertex (union-find)."""
    parent = np.arange(graph.num_vertices, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = int(parent[root])
        while parent[x] != root:
            parent[x], x = root, int(parent[x])
        return root

    for src, dst, _ in graph.edges():
        ra, rb = find(src), find(dst)
        if ra != rb:
            parent[rb] = ra
    labels = np.array([find(v) for v in range(graph.num_vertices)], dtype=np.int64)
    # Relabel to 0..k-1 by first appearance.
    _, labels = np.unique(labels, return_inverse=True)
    return labels


def sample_sources(
    graph: DiGraphCSR, count: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Sample ``count`` distinct source vertices, biased toward non-sinks."""
    rng = rng or np.random.default_rng(0)
    candidates = np.flatnonzero(graph.out_degree() > 0)
    if candidates.size == 0:
        candidates = np.arange(graph.num_vertices)
    count = min(count, candidates.size)
    return rng.choice(candidates, size=count, replace=False)
