"""Personalized PageRank (extension beyond the paper's four benchmarks).

Identical recurrence to PageRank except the teleport mass concentrates on
a seed set instead of spreading uniformly:
``ppr(v) = (1 - d) * seed(v) + d * sum_{u->v} ppr(u) / outdeg(u)``.
Used by the link-prediction / recommendation applications the paper's
introduction motivates [22].
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraphCSR
from repro.model.gas import VertexProgram


class PersonalizedPageRank(VertexProgram):
    """PPR with teleport mass on ``seeds`` (uniformly split)."""

    name = "ppr"

    def __init__(
        self,
        seeds: Sequence[int],
        damping: float = 0.85,
        tolerance: float = 1e-5,
    ) -> None:
        if not seeds:
            raise ConfigurationError("PPR needs at least one seed vertex")
        if not 0.0 < damping < 1.0:
            raise ConfigurationError("damping must be in (0, 1)")
        if tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        self.seeds = tuple(sorted(set(int(s) for s in seeds)))
        self.damping = damping
        self.tolerance = tolerance
        self._out_degree: Optional[np.ndarray] = None
        self._teleport: Optional[np.ndarray] = None

    def initial_states(self, graph: DiGraphCSR) -> np.ndarray:
        if self.seeds[-1] >= graph.num_vertices:
            raise ConfigurationError(
                f"seed {self.seeds[-1]} out of range for "
                f"{graph.num_vertices} vertices"
            )
        self._out_degree = graph.out_degree().astype(np.float64)
        teleport = np.zeros(graph.num_vertices, dtype=np.float64)
        teleport[list(self.seeds)] = 1.0 / len(self.seeds)
        self._teleport = teleport
        return teleport.copy()

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
        assert self._teleport is not None
        return (1.0 - self.damping) * float(
            self._teleport[v]
        ) + self.damping * acc
