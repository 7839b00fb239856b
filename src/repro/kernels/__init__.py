"""Compiled forms of the vertex program's gather-apply, on three axes.

A :class:`~repro.model.gas.VertexProgram` declares its algebra through
the per-edge protocol (``gather_edges`` -> ``gather`` -> ``accumulate``
-> ``apply`` -> ``has_converged``). The engines never run that protocol
edge by edge; they own a *schedule* and resolve the kernel axis that
fits it, each axis bit-identical to the protocol:

- **batch** (:mod:`repro.kernels.base`, :func:`resolve_kernel`) — a
  whole frontier against one snapshot, the Jacobi schedules (the
  vectorized bulk-sync round, DiGraph-t's ``--vectorized`` pass):
  NumPy segment reductions over the CSR/CSC arrays, the shape GPU graph
  compilers (GraphIt/G2) lower to (see :mod:`repro.kernels.segment` for
  the ordering contract). Unregistered programs fall back to a
  per-vertex loop behind the same interface.
- **step** (:mod:`repro.kernels.steps`, :func:`resolve_step`) — one
  vertex against what it can see now, the Gauss-Seidel schedules (the
  path walk, DiGraph-t's per-vertex loop, the async worklist, the
  scalar bulk-sync round, the sequential oracle): one fused closure per
  algebra, ``step(v, old, reads) -> (new, changed)``. Unregistered
  programs get the generic step, which is the protocol loop.
- **lane** (:mod:`repro.kernels.lanes`, :func:`resolve_lane_kernel`) —
  k same-algorithm point queries in one multi-source kernel with a
  leading query-lane axis, bit-identical per lane to k single-source
  runs (the serving layer). No fallback on this axis.

The eight built-in programs fall into three algebras, and every axis is
organised by them: ``linear`` (pagerank, ppr, adsorption), ``monotone``
(sssp, bfs, wcc, reachability), ``structural`` (k-core).
"""

from repro.kernels.base import (
    BatchKernel,
    InEdgeKernel,
    ScalarFallbackKernel,
)
from repro.kernels.registry import (
    has_lane_kernel,
    has_vectorized_kernel,
    kernel_class_for,
    lane_kernel_class_for,
    register_kernel,
    register_lane_kernel,
    registered_lane_program_classes,
    registered_program_classes,
    resolve_kernel,
    resolve_lane_kernel,
)
from repro.kernels.segment import (
    batch_segments,
    interleave_segments,
    segment_max,
    segment_max_2d,
    segment_min,
    segment_min_2d,
    segment_sum_ordered,
    segment_sum_ordered_2d,
)

# Importing the kernel modules registers them.
from repro.kernels import linear as _linear  # noqa: F401
from repro.kernels import monotone as _monotone  # noqa: F401
from repro.kernels import structural as _structural  # noqa: F401
from repro.kernels import lanes as _lanes  # noqa: F401

from repro.kernels.lanes import InEdgeLaneKernel, LaneKernel
from repro.kernels.steps import StepKernel, generic_step, resolve_step

__all__ = [
    "StepKernel",
    "resolve_step",
    "generic_step",
    "BatchKernel",
    "InEdgeKernel",
    "ScalarFallbackKernel",
    "LaneKernel",
    "InEdgeLaneKernel",
    "register_kernel",
    "resolve_kernel",
    "kernel_class_for",
    "has_vectorized_kernel",
    "registered_program_classes",
    "register_lane_kernel",
    "resolve_lane_kernel",
    "lane_kernel_class_for",
    "has_lane_kernel",
    "registered_lane_program_classes",
    "batch_segments",
    "interleave_segments",
    "segment_sum_ordered",
    "segment_sum_ordered_2d",
    "segment_min",
    "segment_min_2d",
    "segment_max",
    "segment_max_2d",
]
