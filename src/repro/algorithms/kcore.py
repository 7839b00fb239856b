"""k-core membership (Khaouid et al., 2015) as a GAS program.

A vertex survives the k-core if at least ``k`` of its (undirected)
neighbors survive. State is 1.0 (alive) or 0.0 (peeled); the update peels
a vertex whose alive-neighbor count drops below ``k``, and peeling is
permanent, so the iteration is monotone and converges to the k-core of the
underlying undirected graph — matching the k-core-decomposition benchmark
the paper cites.

Unlike the other programs, k-core gathers over **both** edge directions
(a neighbor is a neighbor regardless of edge orientation), so
:meth:`dependents` is symmetric too.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraphCSR
from repro.model.gas import GatherEdge, VertexProgram


class KCore(VertexProgram):
    """Membership in the ``k``-core of the underlying undirected graph."""

    name = "kcore"
    tolerance = 0.0  # states are exactly 0.0 or 1.0

    def __init__(self, k: int = 3) -> None:
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        self.k = k

    def initial_states(self, graph: DiGraphCSR) -> np.ndarray:
        return np.ones(graph.num_vertices, dtype=np.float64)

    @property
    def identity(self) -> float:
        return 0.0

    def gather(self, src_state: float, weight: float, src: int, dst: int) -> float:
        # Contribution is 1 per alive neighbor, regardless of weight.
        return 1.0 if src_state > 0.0 else 0.0

    def accumulate(self, a: float, b: float) -> float:
        return a + b

    def gather_edges(self, graph: DiGraphCSR, v: int) -> Iterator[GatherEdge]:
        # In-neighbors, then out-neighbors.
        return zip(
            graph.predecessors(v).tolist() + graph.successors(v).tolist(),
            repeat(1.0),
        )

    def gather_degree(self, graph: DiGraphCSR, v: int) -> int:
        return graph.in_degree(v) + graph.out_degree(v)

    def apply(self, v: int, old_state: float, acc: float) -> float:
        if old_state == 0.0:
            return 0.0  # peeling is permanent
        return 1.0 if acc >= self.k else 0.0

    def has_converged(self, old_state: float, new_state: float) -> bool:
        return new_state == old_state

    def dependents(self, graph: DiGraphCSR, v: int) -> Iterable[int]:
        # Symmetric: both out- and in-neighbors read v's aliveness.
        return graph.successors(v).tolist() + graph.predecessors(v).tolist()
