"""Adsorption label propagation (Baluja et al., 2008).

The paper's second benchmark. Each vertex blends an *injected* prior with
the weight-normalized average of its in-neighbors' labels:

``label(v) = p_inj * injection(v) + p_cont * sum_{u->v} w_norm(u,v) * label(u)``

with ``p_inj + p_cont = 1`` and in-weights normalized per destination. The
scalar-label special case used here keeps the GAS state a single float
while preserving the algorithm's propagation structure (it is the same
linear fixed-point iteration family as PageRank with per-edge weights).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraphCSR
from repro.model.gas import VertexProgram


class Adsorption(VertexProgram):
    """Adsorption with injection probability ``p_inj``.

    Parameters
    ----------
    p_inj:
        Weight of the injected prior; ``p_cont = 1 - p_inj`` continues
        propagation. Must be in (0, 1) so the iteration contracts.
    injection_seed:
        Seed for the deterministic random prior (standing in for the
        application-supplied label seeds).
    injection:
        Explicit per-vertex prior overriding the seeded draw. The
        metamorphic conformance checks need this: the seeded prior is a
        function of the vertex *id*, so relabeling a graph would change
        the problem instead of just renaming it.
    """

    name = "adsorption"

    def __init__(
        self,
        p_inj: float = 0.25,
        tolerance: float = 1e-4,
        injection_seed: int = 13,
        injection: Optional[np.ndarray] = None,
    ) -> None:
        if not 0.0 < p_inj < 1.0:
            raise ConfigurationError("p_inj must be in (0, 1)")
        if tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        self.p_inj = p_inj
        self.p_cont = 1.0 - p_inj
        self.tolerance = tolerance
        self.injection_seed = injection_seed
        self._injection_override = (
            None
            if injection is None
            else np.asarray(injection, dtype=np.float64)
        )
        self._injection: Optional[np.ndarray] = None
        self._in_weight_sum: Optional[np.ndarray] = None

    def initial_states(self, graph: DiGraphCSR) -> np.ndarray:
        if self._injection_override is not None:
            if self._injection_override.size != graph.num_vertices:
                raise ConfigurationError(
                    "injection array must have one entry per vertex"
                )
            self._injection = self._injection_override.copy()
        else:
            rng = np.random.default_rng(self.injection_seed)
            self._injection = rng.uniform(
                0.0, 1.0, size=graph.num_vertices
            )
        # Per-destination weight normalizer for the weighted average.
        sums = np.zeros(graph.num_vertices, dtype=np.float64)
        for v in range(graph.num_vertices):
            sums[v] = float(graph.in_weights(v).sum())
        self._in_weight_sum = sums
        return self._injection.copy()

    @property
    def identity(self) -> float:
        return 0.0

    def gather(self, src_state: float, weight: float, src: int, dst: int) -> float:
        assert self._in_weight_sum is not None
        denom = float(self._in_weight_sum[dst])
        if denom == 0:
            return 0.0
        return src_state * (weight / denom)

    def accumulate(self, a: float, b: float) -> float:
        return a + b

    def apply(self, v: int, old_state: float, acc: float) -> float:
        assert self._injection is not None
        return self.p_inj * float(self._injection[v]) + self.p_cont * acc
