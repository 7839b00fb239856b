"""Traversal helpers: BFS levels, DFS orders, topological sort.

These are used by the graph metrics (sampled average distance), the
sequential topological baseline (Fig. 2d), and the dependency-DAG layering
of Section 3.2.2.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraphCSR

UNREACHED = -1


def bfs_levels(graph: DiGraphCSR, source: int) -> np.ndarray:
    """Hop distance from ``source`` to every vertex (``-1`` if unreached).

    Expands a whole frontier per level; a vertex's hop level does not
    depend on the order its level is found in, so a queue gives the same.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise GraphError(f"vertex {source} out of range for {n} vertices")
    levels = np.full(n, UNREACHED, dtype=np.int64)
    levels[source] = 0
    indptr, indices = graph.indptr, graph.indices
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        level = levels[frontier[0]] + 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        # The frontier's CSR slices, concatenated.
        slots = np.repeat(starts - (counts.cumsum() - counts), counts)
        reached = indices[slots + np.arange(slots.size)]
        frontier = np.unique(reached[levels[reached] == UNREACHED])
        levels[frontier] = level
    return levels


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
    """
    order = topological_order(graph)
    layers = np.zeros(graph.num_vertices, dtype=np.int64)
    for v in order:
        for u in graph.successors(int(v)):
            if layers[u] < layers[v] + 1:
                layers[u] = layers[v] + 1
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
