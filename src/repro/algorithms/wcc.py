"""Weakly connected components via label propagation (extension).

State is a component label, initialized to the vertex id; each vertex
adopts the minimum label among itself and its neighbors in *both*
directions. The iteration is monotone non-increasing with a finite label
domain, so any execution order converges, and the fixed point labels each
weak component by its minimum vertex id (verifiable against the union-find
oracle in :mod:`repro.graph.traversal`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

from repro.graph.digraph import DiGraphCSR
from repro.model.gas import GatherEdge, VertexProgram


class WeaklyConnectedComponents(VertexProgram):
    """Min-label propagation over the underlying undirected graph."""

    name = "wcc"
    tolerance = 0.0

    def initial_states(self, graph: DiGraphCSR) -> np.ndarray:
        return np.arange(graph.num_vertices, dtype=np.float64)

    @property
    def identity(self) -> float:
        return float("inf")

    def gather(self, src_state: float, weight: float, src: int, dst: int) -> float:
        return src_state

    def accumulate(self, a: float, b: float) -> float:
        return a if a <= b else b

    def gather_edges(self, graph: DiGraphCSR, v: int) -> Iterator[GatherEdge]:
        # In-neighbors, then out-neighbors.
        return zip(
            graph.predecessors(v).tolist() + graph.successors(v).tolist(),
            repeat(1.0),
        )

    def gather_degree(self, graph: DiGraphCSR, v: int) -> int:
        return graph.in_degree(v) + graph.out_degree(v)

    def apply(self, v: int, old_state: float, acc: float) -> float:
        return acc if acc < old_state else old_state

    def has_converged(self, old_state: float, new_state: float) -> bool:
        return new_state == old_state

    def dependents(self, graph: DiGraphCSR, v: int) -> Iterable[int]:
        # Out-neighbors, then in-neighbors.
        return graph.successors(v).tolist() + graph.predecessors(v).tolist()
