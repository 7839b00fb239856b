"""PageRank (Page et al., 1998) as a pull-style GAS program.

State is the rank. A vertex's update is
``rank(v) = (1 - d) + d * sum_{u -> v} rank(u) / outdeg(u)``
(the non-normalized formulation common in graph systems, whose fixed point
is ``n`` times the probability-normalized one). The update is a contraction
for ``d < 1``, so synchronous, asynchronous, and path-sequential execution
all converge to the same fixed point — Gauss-Seidel-style orderings just
get there in fewer updates, which is the effect Figs. 6 and 11 measure.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraphCSR
from repro.model.gas import VertexProgram


class PageRank(VertexProgram):
    """PageRank with damping ``d`` and absolute tolerance."""

    name = "pagerank"

    def __init__(self, damping: float = 0.85, tolerance: float = 1e-4) -> None:
        if not 0.0 < damping < 1.0:
            raise ConfigurationError("damping must be in (0, 1)")
        if tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        self.damping = damping
        self.tolerance = tolerance
        self._out_degree: np.ndarray | None = None

    def initial_states(self, graph: DiGraphCSR) -> np.ndarray:
        # Cache out-degrees: gather divides by the source's out-degree.
        self._out_degree = graph.out_degree().astype(np.float64)
        return np.full(graph.num_vertices, 1.0, dtype=np.float64)

    @property
    def identity(self) -> float:
        return 0.0

    def gather(self, src_state: float, weight: float, src: int, dst: int) -> float:
        out_deg = (
            float(self._out_degree[src])
            if self._out_degree is not None
            else 1.0
        )
        if out_deg == 0:
            return 0.0
        return src_state / out_deg

    def accumulate(self, a: float, b: float) -> float:
        return a + b

    def apply(self, v: int, old_state: float, acc: float) -> float:
        return (1.0 - self.damping) + self.damping * acc
