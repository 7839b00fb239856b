"""Multi-source lane kernels: one gather-apply step for k queries at once.

A :class:`LaneKernel` generalizes :class:`~repro.kernels.base.BatchKernel`
with a leading **query-lane axis**: it is constructed from k same-class
vertex programs (k point queries — different sources/seeds, same
algorithm) over one shared graph, and updates a ``(k, n)`` state matrix
in one vectorized sweep. The CSC gather segmentation is computed once
per batch and shared by every lane, so k sources cost one extra array
axis instead of k kernel launches.

Bit-equivalence contract
------------------------
Lane ``i`` of every verb must be bit-identical to the corresponding
single-program :class:`BatchKernel` applied to ``programs[i]`` alone:
the 2D segment reductions in :mod:`repro.kernels.segment` perform the
same IEEE-754 operations per row as their 1D counterparts, and each
kernel below evaluates the same float expression as its 1D sibling with
per-lane constants broadcast along axis 0. The serving layer's
equivalence oracle (``repro.verify.serve``) certifies this end to end
against scalar single-source golden runs.
"""

from __future__ import annotations

import abc
from typing import Sequence, Tuple

import numpy as np

from repro.algorithms.bfs import BFSLevels
from repro.algorithms.ppr import PersonalizedPageRank
from repro.algorithms.reachability import Reachability
from repro.algorithms.sssp import SSSP
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraphCSR
from repro.kernels.registry import register_lane_kernel
from repro.kernels.segment import (
    batch_segments,
    segment_max_2d,
    segment_min_2d,
    segment_sum_ordered_2d,
)
from repro.model.gas import VertexProgram


class LaneKernel(abc.ABC):
    """Vectorized gather-apply for k same-class programs on one graph."""

    name = "lane-kernel"

    def __init__(
        self, programs: Sequence[VertexProgram], graph: DiGraphCSR
    ) -> None:
        programs = tuple(programs)
        if not programs:
            raise ConfigurationError("lane kernel needs at least one program")
        first_cls = type(programs[0])
        for program in programs[1:]:
            if type(program) is not first_cls:
                raise ConfigurationError(
                    "lane kernel requires same-class programs; got "
                    f"{first_cls.__name__} and {type(program).__name__}"
                )
        self.programs = programs
        self.graph = graph
        self.name = programs[0].name
        self.num_lanes = len(programs)
        self._bind()

    def _bind(self) -> None:
        """Cache graph-derived arrays; overridden by subclasses."""

    # ------------------------------------------------------------------
    # lane-axis verbs
    # ------------------------------------------------------------------
    def initial_states(self) -> np.ndarray:
        """``(lanes, n)`` initial states, row i from ``programs[i]``."""
        return np.stack(
            [p.initial_states(self.graph) for p in self.programs]
        )

    def initial_active(self) -> np.ndarray:
        """``(lanes, n)`` initial active masks, row i from ``programs[i]``."""
        return np.stack(
            [p.initial_active(self.graph) for p in self.programs]
        )

    @abc.abstractmethod
    def lane_update(
        self, dst: np.ndarray, states: np.ndarray, old: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gather + apply for every lane over the batch ``dst``.

        ``states`` is the ``(lanes, n)`` matrix gather reads; ``old`` the
        ``(lanes, len(dst))`` previous states. Returns
        ``(new_states, changed)`` of shape ``(lanes, len(dst))``.
        """

    def gather_degrees(self, dst: np.ndarray) -> np.ndarray:
        """Gather-edge count per batch vertex (shared across lanes)."""
        return self.graph.in_degree()[np.asarray(dst, dtype=np.int64)]

    def batch_dependents(
        self, dst: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dependents of each batch vertex (shared across lanes)."""
        positions, seg_offsets = batch_segments(self.graph.indptr, dst)
        return self.graph.indices[positions], seg_offsets

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"lanes={self.num_lanes})"
        )


class InEdgeLaneKernel(LaneKernel):
    """Shared plumbing for lane kernels gathering over in-edges (CSC)."""

    def _bind(self) -> None:
        (
            self._csc_indptr,
            self._csc_sources,
            self._csc_weights,
        ) = self.graph.csc_arrays()

    def gather_segments(
        self, dst: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sources, weights, seg_offsets)``, lane-shared."""
        positions, seg_offsets = batch_segments(self._csc_indptr, dst)
        return (
            self._csc_sources[positions],
            self._csc_weights[positions],
            seg_offsets,
        )


class _MinRelaxLaneKernel(InEdgeLaneKernel):
    """Shared shape of SSSP/BFS lanes: relax in-edges, keep the minimum."""

    def _bind(self) -> None:
        super()._bind()
        self._lane_sources = np.array(
            [p.source for p in self.programs], dtype=np.int64
        )

    def _relax(
        self, source_states: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    def lane_update(
        self, dst: np.ndarray, states: np.ndarray, old: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        dst = np.asarray(dst, dtype=np.int64)
        sources, weights, seg_offsets = self.gather_segments(dst)
        # Row i is states[i][sources] + weights — the exact additions of
        # the 1D kernel's relax for lane i; inf + finite == inf preserves
        # the scalar unreached guard.
        values = self._relax(np.asarray(states)[:, sources], weights)
        acc = segment_min_2d(values, seg_offsets, identity=np.inf)
        new = np.where(acc < old, acc, old)
        new = np.where(
            dst[None, :] == self._lane_sources[:, None], 0.0, new
        )
        return new, new != old


@register_lane_kernel(SSSP)
class SSSPLaneKernel(_MinRelaxLaneKernel):
    """k-source SSSP: per-lane min-relaxation, lane source pinned to 0."""

    def _relax(
        self, source_states: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        return source_states + weights


@register_lane_kernel(BFSLevels)
class BFSLaneKernel(_MinRelaxLaneKernel):
    """k-source BFS levels: SSSP lanes over unit hop counts."""

    def _relax(
        self, source_states: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        return source_states + 1.0


@register_lane_kernel(Reachability)
class ReachabilityLaneKernel(InEdgeLaneKernel):
    """k independent OR-propagations, one source mask row per lane."""

    def _bind(self) -> None:
        super()._bind()
        mask = np.zeros(
            (self.num_lanes, self.graph.num_vertices), dtype=bool
        )
        for i, program in enumerate(self.programs):
            mask[i, list(program.sources)] = True
        self._source_mask = mask

    def lane_update(
        self, dst: np.ndarray, states: np.ndarray, old: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        dst = np.asarray(dst, dtype=np.int64)
        sources, _, seg_offsets = self.gather_segments(dst)
        acc = segment_max_2d(
            np.asarray(states)[:, sources], seg_offsets, identity=0.0
        )
        new = np.where(
            self._source_mask[:, dst],
            1.0,
            np.maximum(old, np.where(acc > 0.0, 1.0, 0.0)),
        )
        return new, new != old


@register_lane_kernel(PersonalizedPageRank)
class PersonalizedPageRankLaneKernel(InEdgeLaneKernel):
    """k seed-set PPR queries sharing one out-degree normalization."""

    def _bind(self) -> None:
        super()._bind()
        self._out_degree = self.graph.out_degree().astype(np.float64)
        n = self.graph.num_vertices
        teleport = np.zeros((self.num_lanes, n), dtype=np.float64)
        for i, program in enumerate(self.programs):
            teleport[i, list(program.seeds)] = 1.0 / len(program.seeds)
        self._teleport = teleport
        self._damping = np.array(
            [p.damping for p in self.programs], dtype=np.float64
        )[:, None]
        self._tolerance = np.array(
            [p.tolerance for p in self.programs], dtype=np.float64
        )[:, None]

    def lane_update(
        self, dst: np.ndarray, states: np.ndarray, old: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        dst = np.asarray(dst, dtype=np.int64)
        sources, _, seg_offsets = self.gather_segments(dst)
        contrib = np.asarray(states)[:, sources] / self._out_degree[sources]
        acc = segment_sum_ordered_2d(contrib, seg_offsets)
        new = (1.0 - self._damping) * self._teleport[
            :, dst
        ] + self._damping * acc
        changed = ~(np.abs(new - old) <= self._tolerance)
        return new, changed
