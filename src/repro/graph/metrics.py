"""Graph metrics matching Table 1 of the paper.

Table 1 reports, per dataset: vertex count, edge count, ``A_Deg`` (average
degree of all vertices) and ``A_Dis`` (average distance between any two
vertices). For large graphs the average distance is estimated by sampled
BFS, the standard technique; the sample size is a parameter so tests can
make it exact on small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.graph.digraph import DiGraphCSR
from repro.graph.traversal import multi_source_levels, sample_sources


@dataclass(frozen=True)
class GraphProperties:
    """One row of Table 1."""

    name: str
    num_vertices: int
    num_edges: int
    average_degree: float
    average_distance: float

    def as_row(self) -> str:
        return (
            f"{self.name:<10} {self.num_vertices:>10,} {self.num_edges:>12,} "
            f"{self.average_degree:>7.3f} {self.average_distance:>7.2f}"
        )


def average_degree(graph: DiGraphCSR) -> float:
    """Average out-degree (= edges / vertices), Table 1's ``A_Deg``."""
    if graph.num_vertices == 0:
        return 0.0
    return graph.num_edges / graph.num_vertices


#: Sources per multi-source sweep: the distance metrics hold at most
#: ``SWEEP_SOURCES * n`` levels at once, even over every vertex.
SWEEP_SOURCES = 64

#: (source, edge) pairs one level of a sweep may expand: on a graph with
#: more edges fewer sources share a sweep, so the expansion's arrays stay
#: ~4 MiB each. Generating the social recipe at n = 16 000 peaks at
#: 152 MiB with all 32 calibration sources in one sweep, 81 MiB with this
#: bound, and peaked at 111 MiB with one BFS per source.
SWEEP_PAIRS = 1 << 19


def _level_blocks(
    graph: DiGraphCSR,
    sample: Optional[int],
    rng: Optional[np.random.Generator],
) -> Iterator[np.ndarray]:
    """Hop-level rows from ``sample`` sources (all vertices if ``None``),
    in source order, a bounded group of sources per sweep."""
    n = graph.num_vertices
    if sample is None or sample >= n:
        sources = np.arange(n)
    else:
        sources = sample_sources(graph, sample, rng=rng)
    rows = SWEEP_PAIRS // max(graph.num_edges, 1)
    rows = min(SWEEP_SOURCES, max(1, rows))
    for start in range(0, sources.size, rows):
        yield multi_source_levels(graph, sources[start : start + rows])


def average_distance(
    graph: DiGraphCSR,
    sample: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Average finite directed distance between vertex pairs (``A_Dis``).

    Runs BFS from ``sample`` sources (all vertices if ``None``) and averages
    the finite non-zero distances. Unreachable pairs are excluded, as is
    conventional for disconnected web graphs. Each source's distances are
    summed as integers and added to the total as a float, in source order.
    """
    if graph.num_vertices <= 1:
        return 0.0
    total = 0.0
    count = 0
    for levels in _level_blocks(graph, sample, rng):
        finite = levels > 0
        for row_sum in np.where(finite, levels, 0).sum(axis=1).tolist():
            total += float(row_sum)
        count += int(finite.sum())
    return total / count if count else 0.0


def effective_diameter(
    graph: DiGraphCSR,
    quantile: float = 0.9,
    sample: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> int:
    """Distance within which ``quantile`` of reachable pairs fall."""
    n = graph.num_vertices
    if n <= 1:
        return 0
    # Finite non-zero distances are below n: a histogram holds them all.
    counts = np.zeros(n, dtype=np.int64)
    for levels in _level_blocks(graph, sample, rng):
        counts += np.bincount(levels[levels > 0], minlength=n)
    if not counts.any():
        return 0
    merged = np.repeat(np.arange(n), counts)
    return int(np.quantile(merged, quantile, method="higher"))


def graph_properties(
    graph: DiGraphCSR,
    name: str = "graph",
    distance_sample: Optional[int] = 64,
    rng: Optional[np.random.Generator] = None,
) -> GraphProperties:
    """Compute a Table-1 row for ``graph``."""
    return GraphProperties(
        name=name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        average_degree=average_degree(graph),
        average_distance=average_distance(graph, sample=distance_sample, rng=rng),
    )


def degree_skew(graph: DiGraphCSR) -> float:
    """Max degree / mean degree; >> 1 signals a power-law-ish graph."""
    degrees = graph.degree()
    mean = degrees.mean() if degrees.size else 0.0
    if mean == 0:
        return 0.0
    return float(degrees.max() / mean)
