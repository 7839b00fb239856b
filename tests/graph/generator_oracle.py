"""The layered crawl and the distance calibration as they were first
written, kept as the oracle.

``generators._build_layered`` takes its uniforms from one stream drawn
ahead in chunks, ranks them with ``bisect_right`` on each layer's CDF and
stages edges as packed ``src * n + dst`` keys; ``metrics.average_distance``
runs one multi-source sweep per group of sources. This module keeps what
those replaced — one ``rng.random()`` per slot and one ``_ZipfDraw`` call
per retry into a tuple set sorted through ``from_edges``, a per-component
``flatnonzero`` in the stitch, and one queue BFS per source — so the tests
can hold the new code to it byte for byte and RNG state for RNG state.
"""

from typing import List, Set, Tuple

import numpy as np

from repro.graph.builder import from_edges
from repro.graph.generators import _ZipfDraw
from repro.graph.scc import strongly_connected_components
from repro.graph.traversal import sample_sources
from tests.graph.test_bfs_oracle import queue_bfs_levels


def per_draw_build_layered(
    n, avg_degree, giant_scc_fraction, num_layers, rng, hot_exponent
):
    """``_build_layered`` with one RNG call per draw."""
    layer_of = np.sort(rng.integers(0, num_layers, size=n))
    layer_members: List[np.ndarray] = [
        np.flatnonzero(layer_of == l) for l in range(num_layers)
    ]
    layer_members = [m for m in layer_members if m.size > 0]
    num_layers = len(layer_members)
    layer_of = np.empty(n, dtype=np.int64)
    for l, members in enumerate(layer_members):
        layer_of[members] = l

    target_core = giant_scc_fraction * n
    size = 0
    lo = max(0, (num_layers - 1) // 4)
    hi = lo
    while hi < num_layers and size < target_core:
        size += layer_members[hi].size
        hi += 1
    while size < target_core and lo > 0:
        lo -= 1
        size += layer_members[lo].size
    best_lo, best_hi = lo, hi
    in_window = (layer_of >= best_lo) & (layer_of < best_hi)

    hot = [_ZipfDraw(members.size, hot_exponent) for members in layer_members]

    edges: Set[Tuple[int, int]] = set()
    hotness = np.empty(n, dtype=np.float64)
    for members, zipf in zip(layer_members, hot):
        hotness[members] = zipf.pmf * members.size
    mean_budget = np.maximum(avg_degree * (0.3 + 0.7 * hotness), 0.1)
    budget = rng.poisson(mean_budget) + 1
    for v in range(n):
        l = int(layer_of[v])
        for _ in range(int(budget[v])):
            r = rng.random()
            if in_window[v] and r < 0.25 and l > best_lo:
                target_layer = l - 1
            elif r < 0.40 and layer_members[l].size > 1:
                target_layer = l
            elif l + 2 < num_layers and r < 0.50:
                target_layer = l + 2
            elif l + 1 < num_layers:
                target_layer = l + 1
            elif l > 0 and in_window[v] and l > best_lo:
                target_layer = l - 1
            else:
                target_layer = l
            if not in_window[v] and target_layer <= l:
                if l + 1 < num_layers:
                    target_layer = l + 1
                else:
                    continue
            if target_layer <= l and not (
                in_window[v] and best_lo <= target_layer < best_hi
            ):
                if target_layer < l:
                    continue
            for _retry in range(4):
                rank = hot[target_layer](rng, 1)[0]
                dst = int(layer_members[target_layer][rank])
                if dst != v and (v, dst) not in edges:
                    edges.add((v, dst))
                    break

    graph = from_edges(sorted(edges), num_vertices=n)
    edges = _per_component_stitch(graph, np.flatnonzero(in_window), edges, rng)
    return from_edges(sorted(edges), num_vertices=n)


def _per_component_stitch(graph, window, edges, rng):
    if window.size == 0:
        return edges
    sub = graph.subgraph_vertices(window.tolist())
    labels = strongly_connected_components(sub)
    num_components = int(labels.max()) + 1
    if num_components <= 1:
        return edges
    reps: List[int] = []
    for comp in range(num_components):
        members = np.flatnonzero(labels == comp)
        reps.append(int(window[members[rng.integers(0, members.size)]]))
    reps.sort()
    for i in range(len(reps)):
        src = reps[i]
        dst = reps[(i + 1) % len(reps)]
        if src != dst:
            edges.add((src, dst))
    return edges


def _per_source_levels(graph, sample, rng):
    n = graph.num_vertices
    if sample is None or sample >= n:
        sources = np.arange(n)
    else:
        sources = sample_sources(graph, sample, rng=rng)
    for s in sources:
        levels = queue_bfs_levels(graph, int(s))
        yield levels[levels > 0]


def per_source_average_distance(graph, sample=None, rng=None):
    """``metrics.average_distance`` with one queue BFS per source."""
    if graph.num_vertices <= 1:
        return 0.0
    total = 0.0
    count = 0
    for finite in _per_source_levels(graph, sample, rng):
        total += float(finite.sum())
        count += int(finite.size)
    return total / count if count else 0.0


def per_source_effective_diameter(graph, quantile=0.9, sample=None, rng=None):
    """``metrics.effective_diameter`` with one queue BFS per source."""
    if graph.num_vertices <= 1:
        return 0
    merged = np.concatenate(list(_per_source_levels(graph, sample, rng)))
    if merged.size == 0:
        return 0
    return int(np.quantile(merged, quantile, method="higher"))
