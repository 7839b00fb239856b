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
  materialized :class:`~repro.model.state.StalenessView`). It cuts the
  batch's :class:`~repro.kernels.segment.GatherTable` from the CSC
  arrays (:meth:`BatchKernel.gather_table`, the columns the kernel names
  in :attr:`BatchKernel.columns`) and runs :meth:`BatchKernel.update`
  over it — each kernel's one arithmetic path. The serving layer calls
  :meth:`~BatchKernel.update` directly, with a table masked from one its
  context cut per layer batch;
- :meth:`BatchKernel.gather_degrees` — per-vertex gather-edge counts,
  matching what the scalar engines charge to ``edge_traversals`` and
  ``load_global``;
- :meth:`BatchKernel.batch_dependents` — concatenated dependents with
  segment offsets, for activation and replica-message accounting.

The accounting-equivalence invariant: for the same batch, a kernel's
degrees/dependents must equal the program's own ``gather_degree`` /
``dependents``, so the engines' modeled counters (``apply_calls``,
``edge_traversals``, ``load_global`` bytes) do not depend on which
kernel runs.

:class:`ScalarFallbackKernel` adapts any :class:`VertexProgram` to the
batch interface by looping its fused step kernel
(:func:`~repro.kernels.steps.resolve_step`) — programs without a
vectorized formulation run unchanged behind the same engine code path,
and bulk-sync runs it when its batch kernels are off.
"""

from __future__ import annotations

import abc
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraphCSR
from repro.kernels.segment import (
    GATHER_COLUMNS,
    GatherTable,
    batch_segments,
    interleave_segments,
    segment_ids,
)
from repro.model.gas import VertexProgram

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids a cycle
    from repro.kernels.steps import StepKernel


def take_vertices(values: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """``values[..., vertices]`` for 1-D or 2-D ``values``, without the
    Ellipsis: ``values[vertices]`` resp. ``values.take(vertices, axis=1)``
    — the same elements, on NumPy's fast paths."""
    if values.ndim == 1:
        return values[vertices]
    return values.take(vertices, axis=1)


def cut_gather_table(
    graph: DiGraphCSR,
    dst: np.ndarray,
    columns: Sequence[str] = GATHER_COLUMNS,
) -> GatherTable:
    """The :class:`GatherTable` of ``dst`` (int64 vertex ids) with
    ``columns``, cut from ``graph``'s CSC arrays; ``sources`` is always
    cut (every kernel reads it, and the source degree is its gather)."""
    indptr, sources, weights = graph.csc_arrays()
    positions, offsets = batch_segments(indptr, graph.in_degree(), dst)
    counts = offsets[1:] - offsets[:-1]
    sources = sources[positions]
    return GatherTable(
        counts,
        offsets,
        sources,
        weights[positions] if "weights" in columns else None,
        (
            graph.out_degree()[sources].astype(np.float64)
            if "source_degree" in columns
            else None
        ),
        segment_ids(counts) if "segment" in columns else None,
    )


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
    #: The per-edge :class:`GatherTable` columns :meth:`update` reads.
    columns: Tuple[str, ...] = ()

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
    def batch_update(
        self, dst: np.ndarray, states: np.ndarray, old: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gather + apply for every vertex in ``dst``: :meth:`update`
        over the batch's table cut from the CSC arrays."""
        dst = np.asarray(dst, dtype=np.int64)
        return self.update(self.gather_table(dst), dst, states, old)

    def gather_table(self, dst: np.ndarray) -> Optional[GatherTable]:
        """The table :meth:`update` reads for ``dst``; ``None`` for a
        kernel that reads none (the default)."""
        return None

    @abc.abstractmethod
    def update(
        self,
        table: Optional[GatherTable],
        dst: np.ndarray,
        states: np.ndarray,
        old: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gather + apply for every vertex in ``dst`` (int64), whose
        in-edges ``table`` holds row by row with :attr:`columns`.

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

    columns: Tuple[str, ...] = ("sources",)

    def gather_table(self, dst: np.ndarray) -> GatherTable:
        """``dst``'s in-edges with :attr:`columns`, from the CSC."""
        return cut_gather_table(self.graph, dst, self.columns)


class BothEdgeKernel(InEdgeKernel):
    """Plumbing of the symmetric programs (WCC, k-core), which gather
    over, and activate along, both edge directions."""

    def gather_degrees(self, dst: np.ndarray) -> np.ndarray:
        dst = np.asarray(dst, dtype=np.int64)
        return self.graph.in_degree()[dst] + self.graph.out_degree()[dst]

    def batch_dependents(
        self, dst: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Scalar order: out-neighbors, then in-neighbors, per vertex.
        out_pos, out_offsets = self.out_segments(dst)
        in_edges = cut_gather_table(
            self.graph, np.asarray(dst, dtype=np.int64), ("sources",)
        )
        return interleave_segments(
            self.graph.indices[out_pos],
            out_offsets,
            in_edges.sources,
            in_edges.offsets,
        )


class ScalarFallbackKernel(BatchKernel):
    """The program's fused step kernel (:mod:`repro.kernels.steps`)
    looped per vertex behind the batch interface, for one program: the
    loop has no multi-row form.

    The step, its degree list and the dependents table are bound on
    first use, not when the kernel is built: :func:`resolve_step` must
    run after ``program.initial_states(graph)``, and the serving solver
    builds its kernel before it asks the kernel for initial states.
    A program that overrides ``update_vertex`` but not the per-edge
    protocol runs its per-edge protocol here (the generic step), as it
    does in every other engine.
    """

    @cached_property
    def steps(self) -> StepKernel:
        """The bound step kernel: ``step``, ``degree``, ``inputs``."""
        from repro.kernels.steps import resolve_step

        return resolve_step(self.program, self.graph)

    @cached_property
    def _dependents(self) -> List[Optional[tuple]]:
        """Each vertex's dependents; ``None`` entries are memoised from
        ``program.dependents`` on first touch."""
        from repro.kernels.steps import dependents_table

        return dependents_table(self.program, self.graph)

    def update(
        self,
        table: Optional[GatherTable],
        dst: np.ndarray,
        states: np.ndarray,
        old: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        step = self.steps.step
        reads = states.tolist()
        updates = [
            step(v, old_state, reads)
            for v, old_state in zip(
                np.asarray(dst, dtype=np.int64).tolist(),
                np.asarray(old, dtype=np.float64).tolist(),
            )
        ]
        return (
            np.array([new for new, _ in updates], dtype=np.float64),
            np.array([changed for _, changed in updates], dtype=bool),
        )

    def gather_degrees(self, dst: np.ndarray) -> np.ndarray:
        degree = self.steps.degree
        return np.array(
            [degree[v] for v in np.asarray(dst, dtype=np.int64).tolist()],
            dtype=np.int64,
        )

    def batch_dependents(
        self, dst: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        table, program, graph = self._dependents, self.program, self.graph
        targets: List[int] = []
        seg_offsets = [0]
        for v in np.asarray(dst, dtype=np.int64).tolist():
            entry = table[v]
            if entry is None:
                entry = table[v] = tuple(
                    map(int, program.dependents(graph, v))
                )
            targets.extend(entry)
            seg_offsets.append(len(targets))
        return (
            np.asarray(targets, dtype=np.int64),
            np.asarray(seg_offsets, dtype=np.int64),
        )
