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
from repro.kernels.segment import segment_sum_ordered


@register_kernel(PageRank)
class PageRankKernel(InEdgeKernel):
    """``new = (1 - d) + d * sum in-states / out-degree``."""

    def _bind(self) -> None:
        super()._bind()
        self._out_degree = self.graph.out_degree().astype(np.float64)
        self._damping = self.stack(lambda p: p.damping)
        self._tolerance = self.stack(lambda p: p.tolerance)

    def _in_sum(self, dst: np.ndarray, states: np.ndarray) -> np.ndarray:
        """``sum_{u->v} state(u) / out_degree(u)`` per batch vertex."""
        positions, seg_offsets = self.gather_segments(dst)
        sources = self._csc_sources[positions]
        # Every gather source has >= 1 out-edge (the one being gathered),
        # so the division is always defined.
        gathered = take_vertices(np.asarray(states), sources)
        contrib = gathered / self._out_degree[sources]
        return segment_sum_ordered(contrib, seg_offsets)

    def batch_update(
        self, dst: np.ndarray, states: np.ndarray, old: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        acc = self._in_sum(dst, states)
        new = (1.0 - self._damping) + self._damping * acc
        changed = ~(np.abs(new - old) <= self._tolerance)
        return new, changed


@register_kernel(PersonalizedPageRank)
class PersonalizedPageRankKernel(PageRankKernel):
    """PageRank with the teleport mass pinned to the seed set."""

    def _bind(self) -> None:
        super()._bind()
        self._teleport = self.stack(self._teleport_of)

    def _teleport_of(self, program: PersonalizedPageRank) -> np.ndarray:
        # Same construction as the program's initial_states cache.
        teleport = np.zeros(self.graph.num_vertices, dtype=np.float64)
        teleport[list(program.seeds)] = 1.0 / len(program.seeds)
        return teleport

    def batch_update(
        self, dst: np.ndarray, states: np.ndarray, old: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        dst = np.asarray(dst, dtype=np.int64)
        acc = self._in_sum(dst, states)
        new = (1.0 - self._damping) * take_vertices(
            self._teleport, dst
        ) + self._damping * acc
        changed = ~(np.abs(new - old) <= self._tolerance)
        return new, changed


@register_kernel(Adsorption)
class AdsorptionKernel(InEdgeKernel):
    """Injected prior blended with the weight-normalized in-average."""

    def _bind(self) -> None:
        super()._bind()
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

    def batch_update(
        self, dst: np.ndarray, states: np.ndarray, old: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        dst = np.asarray(dst, dtype=np.int64)
        positions, seg_offsets = self.gather_segments(dst)
        weights = self._csc_weights[positions]
        denom = np.repeat(
            self._in_weight_sum[dst], seg_offsets[1:] - seg_offsets[:-1]
        )
        ratio = np.divide(
            weights,
            denom,
            out=np.zeros_like(weights),
            where=denom != 0.0,
        )
        sources = self._csc_sources[positions]
        contrib = take_vertices(np.asarray(states), sources) * ratio
        acc = segment_sum_ordered(contrib, seg_offsets)
        new = (
            self._p_inj * take_vertices(self._injection, dst)
            + self._p_cont * acc
        )
        changed = ~(np.abs(new - old) <= self._tolerance)
        return new, changed
