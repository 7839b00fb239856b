"""Vectorized kernel for k-core membership.

The gather counts alive neighbors over both edge directions. Counts are
integer-valued floats, so splitting the fold into an in-edge sum plus an
out-edge sum is exact — equal to the scalar interleaved fold bit for bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.algorithms.kcore import KCore
from repro.kernels.base import BothEdgeKernel, take_vertices
from repro.kernels.registry import register_kernel
from repro.kernels.segment import GatherTable, segment_sum_ordered


@register_kernel(KCore)
class KCoreKernel(BothEdgeKernel):
    """Peel a vertex when fewer than ``k`` of its neighbors are alive."""

    columns = ("sources", "segment")

    def _bind(self) -> None:
        self._k = self.stack(lambda p: p.k)

    def update(
        self,
        table: GatherTable,
        dst: np.ndarray,
        states: np.ndarray,
        old: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        states = np.asarray(states)
        out_pos, out_offsets = self.out_segments(dst)
        alive_in = (take_vertices(states, table.sources) > 0.0).astype(
            np.float64
        )
        alive_out = (
            take_vertices(states, self.graph.indices[out_pos]) > 0.0
        ).astype(np.float64)
        acc = segment_sum_ordered(
            alive_in, table.offsets, table.segment
        ) + segment_sum_ordered(alive_out, out_offsets)
        new = np.where(
            old == 0.0,  # peeling is permanent
            0.0,
            np.where(acc >= self._k, 1.0, 0.0),
        )
        return new, new != old
