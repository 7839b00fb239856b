"""Compiled forms of the vertex program's gather-apply, in two forms.

A :class:`~repro.model.gas.VertexProgram` declares its algebra through
the per-edge protocol (``gather_edges`` -> ``gather`` -> ``accumulate``
-> ``apply`` -> ``has_converged``). The engines never run that protocol
edge by edge; they own a *schedule* and resolve the kernel form that
fits it, each form bit-identical to the protocol:

- **batch** (:mod:`repro.kernels.base`, :func:`resolve_kernel`) — a
  whole frontier against one snapshot, the Jacobi schedules: NumPy
  segment reductions over the CSR/CSC arrays, the shape GPU graph
  compilers (GraphIt/G2) lower to (see :mod:`repro.kernels.segment` for
  the ordering contract). Unregistered programs fall back to their step
  kernel looped per vertex behind the same interface
  (:class:`~repro.kernels.base.ScalarFallbackKernel`), which is also
  what the bulk-sync round runs with its batch kernels off.
- **step** (:mod:`repro.kernels.steps`, :func:`resolve_step`) — one
  vertex against what it can see now, the Gauss-Seidel schedules (the
  path walk, DiGraph-t's per-vertex loop, the async worklist, the
  sequential oracle): one fused closure per algebra,
  ``step(v, old, reads) -> (new, changed)``. Unregistered programs get
  the generic step, which is the protocol loop.

Query lanes are a *rank* of the batch form, not a third registry: every
``batch_update`` is written over the last axis, so ``resolve_kernel(
program, graph)`` updates an ``(n,)`` state vector (the vectorized
bulk-sync round and a one-query serving solve) and ``resolve_kernel(
programs, graph)`` — k >= 2 same-class point queries — updates a
``(k, n)`` matrix with the same class, row i bit-identical to the
one-program kernel on ``programs[i]`` (the serving layer). A program
sequence has no fallback.

Both forms share one lookup rule
(:func:`repro.kernels.registry.registered_for`): a subclass that
overrides a protocol method does not inherit its base's kernel.

The eight built-in programs fall into three algebras, and both forms are
organised by them: ``linear`` (pagerank, ppr, adsorption), ``monotone``
(sssp, bfs, wcc, reachability), ``structural`` (k-core).
"""

from repro.kernels.base import (
    BatchKernel,
    InEdgeKernel,
    ScalarFallbackKernel,
)
from repro.kernels.registry import (
    has_vectorized_kernel,
    kernel_class_for,
    register_kernel,
    registered_program_classes,
    resolve_kernel,
)
from repro.kernels.segment import (
    batch_segments,
    interleave_segments,
    segment_max,
    segment_min,
    segment_sum_ordered,
)

# Importing the kernel modules registers them.
from repro.kernels import linear as _linear  # noqa: F401
from repro.kernels import monotone as _monotone  # noqa: F401
from repro.kernels import structural as _structural  # noqa: F401

from repro.kernels.steps import StepKernel, generic_step, resolve_step

__all__ = [
    "StepKernel",
    "resolve_step",
    "generic_step",
    "BatchKernel",
    "InEdgeKernel",
    "ScalarFallbackKernel",
    "register_kernel",
    "resolve_kernel",
    "kernel_class_for",
    "has_vectorized_kernel",
    "registered_program_classes",
    "batch_segments",
    "interleave_segments",
    "segment_sum_ordered",
    "segment_min",
    "segment_max",
]
