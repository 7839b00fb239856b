"""Vectorized kernels for the linear fixed-point programs.

PageRank, personalized PageRank, and adsorption are all contractions of
the form ``new = c(v) + d * sum_{u->v} coeff(u, v) * state(u)`` — the
delta-accumulative family Maiter formulates as associative batch
operations. The sum uses :func:`segment_sum_ordered`, so each vertex's
accumulator is built by the exact IEEE operations of the scalar fold and
the batched round is bit-identical to the per-vertex one.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.algorithms.adsorption import Adsorption
from repro.algorithms.pagerank import PageRank
from repro.algorithms.ppr import PersonalizedPageRank
from repro.kernels.base import InEdgeKernel, take_vertices
from repro.kernels.registry import register_kernel
from repro.kernels.segment import GatherTable, segment_sum_ordered


@register_kernel(PageRank)
class PageRankKernel(InEdgeKernel):
    """``new = (1 - d) + d * sum in-states / out-degree``."""

    columns = ("sources", "source_degree", "segment")

    def _bind(self) -> None:
        self._damping = self.stack(lambda p: p.damping)
        self._tolerance = self.stack(lambda p: p.tolerance)

    @staticmethod
    def _in_sum(table: GatherTable, states: np.ndarray) -> np.ndarray:
        """``sum_{u->v} state(u) / out_degree(u)`` per batch vertex."""
        # Every gather source has >= 1 out-edge (the one being gathered),
        # so the division is always defined.
        gathered = take_vertices(np.asarray(states), table.sources)
        contrib = gathered / table.source_degree
        return segment_sum_ordered(contrib, table.offsets, table.segment)

    def update(
        self,
        table: GatherTable,
        dst: np.ndarray,
        states: np.ndarray,
        old: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        acc = self._in_sum(table, states)
        new = (1.0 - self._damping) + self._damping * acc
        changed = ~(np.abs(new - old) <= self._tolerance)
        return new, changed


@register_kernel(PersonalizedPageRank)
class PersonalizedPageRankKernel(PageRankKernel):
    """PageRank with the teleport mass pinned to the seed set."""

    def _bind(self) -> None:
        super()._bind()
        #: ``(1 - d) * teleport``, the same product per vertex as
        #: forming it per batch.
        self._base = (1.0 - self._damping) * self.stack(self._teleport_of)

    def _teleport_of(self, program: PersonalizedPageRank) -> np.ndarray:
        # Same construction as the program's initial_states cache.
        teleport = np.zeros(self.graph.num_vertices, dtype=np.float64)
        teleport[list(program.seeds)] = 1.0 / len(program.seeds)
        return teleport

    def update(
        self,
        table: GatherTable,
        dst: np.ndarray,
        states: np.ndarray,
        old: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        acc = self._in_sum(table, states)
        new = take_vertices(self._base, dst) + self._damping * acc
        changed = ~(np.abs(new - old) <= self._tolerance)
        return new, changed


@register_kernel(Adsorption)
class AdsorptionKernel(InEdgeKernel):
    """Injected prior blended with the weight-normalized in-average."""

    columns = ("sources", "weights", "segment")

    def _bind(self) -> None:
        self._injection = self.stack(self._injection_of)
        # A function of the graph alone, so the same for every program.
        self._in_weight_sum = self.program._in_weight_sum
        self._p_inj = self.stack(lambda p: p.p_inj)
        self._p_cont = self.stack(lambda p: p.p_cont)
        self._tolerance = self.stack(lambda p: p.tolerance)

    def _injection_of(self, program: Adsorption) -> np.ndarray:
        if program._injection is None or program._in_weight_sum is None:
            # Deterministic caches; recomputing them is idempotent.
            program.initial_states(self.graph)
        return program._injection

    def update(
        self,
        table: GatherTable,
        dst: np.ndarray,
        states: np.ndarray,
        old: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        weights = table.weights
        denom = np.repeat(self._in_weight_sum[dst], table.counts)
        ratio = np.divide(
            weights,
            denom,
            out=np.zeros_like(weights),
            where=denom != 0.0,
        )
        contrib = take_vertices(np.asarray(states), table.sources) * ratio
        acc = segment_sum_ordered(contrib, table.offsets, table.segment)
        new = (
            self._p_inj * take_vertices(self._injection, dst)
            + self._p_cont * acc
        )
        changed = ~(np.abs(new - old) <= self._tolerance)
        return new, changed
