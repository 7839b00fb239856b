"""Batch-kernel interface and the scalar fallback.

A :class:`BatchKernel` computes one gather-apply step for a *batch* of
destination vertices at once — the GPU-kernel shape (one segment
reduction over the CSR/CSC arrays) that GraphIt/G2 compile gather-apply
loops into, realized here with NumPy. Engines drive kernels with three
verbs:

- :meth:`BatchKernel.batch_update` — new states + changed flags for a
  vertex batch, gathering from a plain state array (a snapshot or a
  materialized :class:`~repro.model.state.StalenessView`);
- :meth:`BatchKernel.gather_degrees` — per-vertex gather-edge counts,
  matching what the scalar engines charge to ``edge_traversals`` and
  ``load_global``;
- :meth:`BatchKernel.batch_dependents` — concatenated dependents with
  segment offsets, for activation and replica-message accounting.

The accounting-equivalence invariant: for the same batch, a kernel's
degrees/dependents must equal what the per-vertex scalar loop would
produce, so the engines' modeled counters (``apply_calls``,
``edge_traversals``, ``load_global`` bytes) do not move when the
vectorized path is enabled.

:class:`ScalarFallbackKernel` adapts any :class:`VertexProgram` to the
batch interface by looping ``update_vertex`` — programs without a
vectorized formulation run unchanged behind the same engine code path.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from repro.graph.digraph import DiGraphCSR
from repro.kernels.segment import batch_segments
from repro.model.gas import VertexProgram


class BatchKernel(abc.ABC):
    """Vectorized gather-apply for one vertex program on one graph."""

    #: Kernel name for reports; defaults to the program's name.
    name = "batch-kernel"

    def __init__(self, program: VertexProgram, graph: DiGraphCSR) -> None:
        self.program = program
        self.graph = graph
        self.name = program.name
        self._bind()

    def _bind(self) -> None:
        """Cache graph-derived arrays; overridden by subclasses."""

    # ------------------------------------------------------------------
    # the batch verbs
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def batch_update(
        self, dst: np.ndarray, states: np.ndarray, old: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gather + apply for every vertex in ``dst``.

        ``states`` is the array gather reads (snapshot or materialized
        view); ``old`` the per-vertex previous states the apply/convergence
        check uses. Returns ``(new_states, changed_mask)``.
        """

    def gather_degrees(self, dst: np.ndarray) -> np.ndarray:
        """Gather-edge count per batch vertex (default: in-degree)."""
        return self.graph.in_degree()[np.asarray(dst, dtype=np.int64)]

    def batch_dependents(
        self, dst: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dependents of each batch vertex (default: out-neighbors).

        Returns ``(targets, seg_offsets)`` with vertex ``dst[i]``'s
        dependents at ``targets[seg_offsets[i]:seg_offsets[i + 1]]``.
        """
        positions, seg_offsets = batch_segments(self.graph.indptr, dst)
        return self.graph.indices[positions], seg_offsets

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class InEdgeKernel(BatchKernel):
    """Shared plumbing for kernels that gather over in-edges (CSC)."""

    def _bind(self) -> None:
        (
            self._csc_indptr,
            self._csc_sources,
            self._csc_weights,
        ) = self.graph.csc_arrays()

    def gather_segments(
        self, dst: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(sources, weights, seg_offsets, counts)`` of the batch."""
        positions, seg_offsets = batch_segments(self._csc_indptr, dst)
        return (
            self._csc_sources[positions],
            self._csc_weights[positions],
            seg_offsets,
            seg_offsets[1:] - seg_offsets[:-1],
        )


class ScalarFallbackKernel(BatchKernel):
    """Per-vertex loop behind the batch interface (no vectorization)."""

    def batch_update(
        self, dst: np.ndarray, states: np.ndarray, old: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        dst = np.asarray(dst, dtype=np.int64)
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
