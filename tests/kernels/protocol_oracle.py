"""The vertex-program protocol looped per vertex, kept as the oracle.

Every compiled kernel in :mod:`repro.kernels` — the vectorized batch
kernels and the fused step kernels, which
:class:`~repro.kernels.base.ScalarFallbackKernel` loops behind the batch
interface — must compute what the program's own per-vertex protocol
computes. :class:`ProtocolKernel` is that protocol behind the same batch
interface, line for line the loop the fallback kernel ran before it ran
the step kernel:

- ``update`` (what ``batch_update`` runs; it reads no gather table)
  calls ``program.update_vertex`` per vertex;
- ``gather_degrees`` calls ``program.gather_degree``;
- ``batch_dependents`` calls ``program.dependents``.

It shares no table with any kernel, so the vectorized kernels are held
to the protocol here, not to the step kernels they share their algebra
tables with.
"""

from typing import Optional, Tuple

import numpy as np

from repro.kernels.base import BatchKernel
from repro.kernels.segment import GatherTable


class ProtocolKernel(BatchKernel):
    """``update_vertex`` per vertex behind the batch interface, for one
    program."""

    def update(
        self,
        table: Optional[GatherTable],
        dst: np.ndarray,
        states: np.ndarray,
        old: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        new = np.empty(dst.size, dtype=np.float64)
        changed = np.empty(dst.size, dtype=bool)
        for i in range(dst.size):
            new[i], changed[i] = self.program.update_vertex(
                self.graph, int(dst[i]), states, old_state=float(old[i])
            )
        return new, changed

    def gather_degrees(self, dst: np.ndarray) -> np.ndarray:
        return np.array(
            [
                self.program.gather_degree(self.graph, int(v))
                for v in np.asarray(dst, dtype=np.int64)
            ],
            dtype=np.int64,
        )

    def batch_dependents(
        self, dst: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        targets = []
        seg_offsets = [0]
        for v in np.asarray(dst, dtype=np.int64):
            targets.extend(
                int(u) for u in self.program.dependents(self.graph, int(v))
            )
            seg_offsets.append(len(targets))
        return (
            np.asarray(targets, dtype=np.int64),
            np.asarray(seg_offsets, dtype=np.int64),
        )
