"""Vectorized kernels for the monotone path/label programs.

SSSP, BFS, WCC, and reachability fold gather values with min/max, which
are exact under any association — so these kernels use plain
``reduceat`` segment reductions and are bit-identical to the scalar fold
with no ordering care needed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.algorithms.bfs import BFSLevels
from repro.algorithms.reachability import Reachability
from repro.algorithms.sssp import SSSP
from repro.algorithms.wcc import WeaklyConnectedComponents
from repro.kernels.base import BothEdgeKernel, InEdgeKernel, take_vertices
from repro.kernels.registry import register_kernel
from repro.kernels.segment import GatherTable, segment_max, segment_min


class _MinRelaxKernel(InEdgeKernel):
    """Shared shape of SSSP/BFS: relax in-edges, keep the minimum."""

    def _bind(self) -> None:
        self._source = self.stack(lambda p: p.source)

    #: Per-edge step over the table's edges; overridden per program.
    def _relax(
        self, source_states: np.ndarray, table: GatherTable
    ) -> np.ndarray:
        raise NotImplementedError

    def update(
        self,
        table: GatherTable,
        dst: np.ndarray,
        states: np.ndarray,
        old: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        # inf + finite == inf, so unreached sources propagate the scalar
        # guard's INFINITY without a branch.
        values = self._relax(
            take_vertices(np.asarray(states), table.sources), table
        )
        acc = segment_min(values, table.offsets, identity=np.inf)
        new = np.where(acc < old, acc, old)
        new[dst == self._source] = 0.0
        return new, new != old


@register_kernel(SSSP)
class SSSPKernel(_MinRelaxKernel):
    """``new = min(old, min_{u->v} dist(u) + w)``, source pinned to 0."""

    columns = ("sources", "weights")

    def _relax(
        self, source_states: np.ndarray, table: GatherTable
    ) -> np.ndarray:
        return source_states + table.weights


@register_kernel(BFSLevels)
class BFSKernel(_MinRelaxKernel):
    """SSSP over unit hop counts."""

    def _relax(
        self, source_states: np.ndarray, table: GatherTable
    ) -> np.ndarray:
        return source_states + 1.0


@register_kernel(WeaklyConnectedComponents)
class WCCKernel(BothEdgeKernel):
    """Min-label over both edge directions of the undirected view."""

    def update(
        self,
        table: GatherTable,
        dst: np.ndarray,
        states: np.ndarray,
        old: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        states = np.asarray(states)
        out_pos, out_offsets = self.out_segments(dst)
        acc = np.minimum(
            segment_min(take_vertices(states, table.sources), table.offsets),
            segment_min(
                take_vertices(states, self.graph.indices[out_pos]),
                out_offsets,
            ),
        )
        new = np.where(acc < old, acc, old)
        return new, new != old


@register_kernel(Reachability)
class ReachabilityKernel(InEdgeKernel):
    """Monotone OR-propagation from the source set."""

    def _bind(self) -> None:
        self._source_mask = self.stack(self._mask_of)

    def _mask_of(self, program: Reachability) -> np.ndarray:
        mask = np.zeros(self.graph.num_vertices, dtype=bool)
        mask[list(program.sources)] = True
        return mask

    def update(
        self,
        table: GatherTable,
        dst: np.ndarray,
        states: np.ndarray,
        old: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        gathered = take_vertices(np.asarray(states), table.sources)
        acc = segment_max(gathered, table.offsets, identity=0.0)
        new = np.where(
            take_vertices(self._source_mask, dst),
            1.0,
            np.maximum(old, np.where(acc > 0.0, 1.0, 0.0)),
        )
        return new, new != old
