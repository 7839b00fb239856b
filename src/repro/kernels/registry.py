"""Kernel registry: vertex-program class -> vectorized batch kernel.

Kernels register with :func:`register_kernel` next to their program's
vectorized formulation; engines resolve one with :func:`resolve_kernel`.
For one program that yields the registered kernel, or the
:class:`~repro.kernels.base.ScalarFallbackKernel` when none exists (so
the batched engine code path runs every program, just without the
speedup). For a sequence of same-class programs — the serving layer's
k point queries — it yields the *same* kernel class over a ``(k, n)``
state matrix; a sequence has no scalar fallback, so a program class
either has a vectorized formulation or the serving layer refuses to
batch it.

:func:`registered_for` is the one lookup rule of both compiled forms
(this registry and the step builders of :mod:`repro.kernels.steps`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Type, TypeVar, Union

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraphCSR
from repro.kernels.base import (
    BatchKernel,
    ScalarFallbackKernel,
    same_class_programs,
)
from repro.model.gas import VertexProgram

_REGISTRY: Dict[Type[VertexProgram], Type[BatchKernel]] = {}

#: What a compiled kernel replaces (``dependents``: the batch form's
#: ``batch_dependents``): a subclass overriding any of these no longer
#: computes what its base's registered kernel computes.
PROTOCOL = (
    "identity",
    "gather",
    "accumulate",
    "gather_edges",
    "gather_degree",
    "apply",
    "has_converged",
    "full_gather",
    "update_vertex",
    "dependents",
)

_Entry = TypeVar("_Entry")


def registered_for(
    table: Dict[Type[VertexProgram], _Entry], program: VertexProgram
) -> Optional[_Entry]:
    """``table``'s entry for ``program``'s exact class — or for a base
    class, when the subclass overrides no protocol method."""
    cls = type(program)
    for base in cls.__mro__:
        entry = table.get(base)
        if entry is not None:
            inherits = all(
                getattr(cls, name) is getattr(base, name)
                for name in PROTOCOL
            )
            return entry if inherits else None
    return None


def register_kernel(
    *program_classes: Type[VertexProgram],
) -> Callable[[Type[BatchKernel]], Type[BatchKernel]]:
    """Class decorator registering a kernel for its program class(es)."""

    def decorate(kernel_cls: Type[BatchKernel]) -> Type[BatchKernel]:
        for program_cls in program_classes:
            _REGISTRY[program_cls] = kernel_cls
        return kernel_cls

    return decorate


def kernel_class_for(
    program: VertexProgram,
) -> Optional[Type[BatchKernel]]:
    """The registered kernel class for ``program``, if any (see
    :func:`registered_for`)."""
    return registered_for(_REGISTRY, program)


def has_vectorized_kernel(program: VertexProgram) -> bool:
    """Whether ``program`` has a registered vectorized formulation."""
    return kernel_class_for(program) is not None


def resolve_kernel(
    programs: Union[VertexProgram, Sequence[VertexProgram]],
    graph: DiGraphCSR,
    allow_fallback: bool = True,
) -> Optional[BatchKernel]:
    """Build the kernel for ``programs`` bound to ``graph``.

    One program without a registered kernel gets the scalar fallback
    (or ``None`` when ``allow_fallback`` is false). A sequence must be
    non-empty and share one class with a registered kernel, else
    :class:`~repro.errors.ConfigurationError`.
    """
    single = isinstance(programs, VertexProgram)
    lead = programs if single else same_class_programs(programs)[0]
    kernel_cls = kernel_class_for(lead)
    if kernel_cls is None:
        if not single:
            raise ConfigurationError(
                f"no batch kernel registered for program "
                f"{type(lead).__name__!r}; a program sequence has no "
                f"scalar fallback"
            )
        if not allow_fallback:
            return None
        kernel_cls = ScalarFallbackKernel
    return kernel_cls(programs, graph)


def registered_program_classes() -> Tuple[Type[VertexProgram], ...]:
    """Program classes with a vectorized kernel, registration order."""
    return tuple(_REGISTRY.keys())
