"""Batch-kernel interface and the scalar fallback.

A :class:`BatchKernel` computes one gather-apply step for a *batch* of
destination vertices at once — the GPU-kernel shape (one segment
reduction over the CSR/CSC arrays) that GraphIt/G2 compile gather-apply
loops into, realized here with NumPy.

A kernel is built from one program, or from a sequence of k same-class
programs (k point queries over one shared graph). Every ``batch_update``
is written over the **last** axis: ``states`` is ``(n,)`` for one
program and ``(k, n)`` for a sequence. The gather segmentation is
computed once per batch and shared by every row, per-program constants
are scalars resp. ``(k, 1)`` columns (:meth:`BatchKernel.stack`), and
row i performs the exact IEEE-754 operations of the one-program kernel
on ``programs[i]`` — so the bulk-sync round and the serving layer
certify the same code.

The rank rule: no engine builds a one-program sequence — the bulk-sync
round and a one-query solve both pass the program itself and run the
1-D kernel; only k >= 2 queries build the ``(k, n)`` one. The
vertex axis is read through :func:`take_vertices` (``x[idx]`` on 1-D,
``x.take(idx, axis=1)`` on 2-D), never as ``x[..., idx]``: an Ellipsis
index sends even a 1-D array down NumPy's general indexing path (about
1.3 µs per 40-index gather against 0.4 µs for ``x[idx]``, NumPy 2.4 on
2 vCPUs), and a one-query launch makes a dozen of them
(``docs/serving.md``, "Host cost of a launch").

Engines drive kernels with three verbs:

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
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraphCSR
from repro.kernels.segment import batch_segments, interleave_segments
from repro.model.gas import VertexProgram


def take_vertices(values: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """``values[..., vertices]`` for 1-D or 2-D ``values``, without the
    Ellipsis: ``values[vertices]`` resp. ``values.take(vertices, axis=1)``
    — the same elements, on NumPy's fast paths."""
    if values.ndim == 1:
        return values[vertices]
    return values.take(vertices, axis=1)


def same_class_programs(
    programs: Sequence[VertexProgram],
) -> Tuple[VertexProgram, ...]:
    """``programs`` as a tuple, checked non-empty and of one class."""
    programs = tuple(programs)
    if not programs:
        raise ConfigurationError("a batch kernel needs at least one program")
    first_cls = type(programs[0])
    for program in programs[1:]:
        if type(program) is not first_cls:
            raise ConfigurationError(
                "a batch kernel requires same-class programs; got "
                f"{first_cls.__name__} and {type(program).__name__}"
            )
    return programs


class BatchKernel(abc.ABC):
    """Vectorized gather-apply for one vertex program — or a sequence of
    same-class ones, one state row each — on one graph."""

    #: Kernel name for reports; defaults to the program's name.
    name = "batch-kernel"

    def __init__(
        self,
        programs: Union[VertexProgram, Sequence[VertexProgram]],
        graph: DiGraphCSR,
    ) -> None:
        #: Rows of the state matrix; ``None``: one program, 1-D states.
        self.num_lanes: Optional[int] = None
        if isinstance(programs, VertexProgram):
            self.programs = (programs,)
        else:
            self.programs = same_class_programs(programs)
            self.num_lanes = len(self.programs)
        self.program = self.programs[0]
        self.graph = graph
        self.name = self.program.name
        self._bind()

    def _bind(self) -> None:
        """Cache graph-derived arrays; overridden by subclasses."""

    def stack(self, value: Callable[[VertexProgram], object]):
        """``value(program)`` for one program; for a sequence, the
        values stacked on a leading lane axis — scalars as a ``(k, 1)``
        column, so they broadcast against ``(k, len(dst))``."""
        if self.num_lanes is None:
            return value(self.program)
        stacked = np.array([value(p) for p in self.programs])
        return stacked[:, None] if stacked.ndim == 1 else stacked

    def initial_states(self) -> np.ndarray:
        """Initial states, one row per program of a sequence."""
        return self.stack(lambda p: p.initial_states(self.graph))

    def initial_active(self) -> np.ndarray:
        """Initial active masks, one row per program of a sequence."""
        return self.stack(lambda p: p.initial_active(self.graph))

    # ------------------------------------------------------------------
    # the batch verbs
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def batch_update(
        self, dst: np.ndarray, states: np.ndarray, old: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gather + apply for every vertex in ``dst``.

        ``states`` is the array gather reads (snapshot or materialized
        view) — vertices on the last axis; ``old`` the per-vertex
        previous states the apply/convergence check uses. Returns
        ``(new_states, changed_mask)``, shaped like ``old``.
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
        positions, seg_offsets = self.out_segments(dst)
        return self.graph.indices[positions], seg_offsets

    def out_segments(self, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, seg_offsets)`` of the batch's CSR out-edges."""
        return batch_segments(self.graph.indptr, self.graph.out_degree(), dst)

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
        self._in_degree = self.graph.in_degree()

    def gather_segments(
        self, dst: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """CSC ``(positions, seg_offsets)``; index only what is read."""
        return batch_segments(self._csc_indptr, self._in_degree, dst)


class BothEdgeKernel(InEdgeKernel):
    """Plumbing of the symmetric programs (WCC, k-core), which gather
    over, and activate along, both edge directions."""

    def gather_degrees(self, dst: np.ndarray) -> np.ndarray:
        dst = np.asarray(dst, dtype=np.int64)
        return self._in_degree[dst] + self.graph.out_degree()[dst]

    def batch_dependents(
        self, dst: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Scalar order: out-neighbors, then in-neighbors, per vertex.
        out_pos, out_offsets = self.out_segments(dst)
        in_pos, in_offsets = self.gather_segments(dst)
        return interleave_segments(
            self.graph.indices[out_pos],
            out_offsets,
            self._csc_sources[in_pos],
            in_offsets,
        )


class ScalarFallbackKernel(BatchKernel):
    """Per-vertex loop behind the batch interface (no vectorization),
    for one program: the loop has no multi-row form."""

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
