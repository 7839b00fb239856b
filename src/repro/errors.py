"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch the whole family with one clause
while still distinguishing subsystems.
"""

from __future__ import annotations

import inspect
from typing import Callable, NamedTuple, Optional, Tuple


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


def _as_is(value):
    return value


def _g6(value) -> str:
    return f"{value:.6g}"


def _distinct(values) -> list:
    return sorted(set(values))


class Field(NamedTuple):
    """One structured field of a :class:`StructuredError`: the attribute
    ``name``, its ``label`` in the message (``""``: the name), how the
    value is shown there (``None``: not in the message) and how it is
    stored on the error."""

    name: str
    label: str = ""
    show: Optional[Callable] = format
    store: Callable = _as_is


class StructuredError(ReproError):
    """An error whose fields name the casualty without message parsing.

    A subclass declares its ``fields`` and, if the message may be left
    out, a ``default_message``. The constructor takes the message, then
    the fields in table order, positional or by name, each defaulting to
    ``None``. Every set (non-``None``) field with a ``show`` is appended
    to the message as ``label=shown``, in table order inside one pair of
    parentheses; it is stored as ``store(value)``, an unset field as
    ``None``.
    """

    fields: Tuple[Field, ...] = ()
    default_message: Optional[str] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._signature = inspect.Signature([
            inspect.Parameter(
                name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default=default
            )
            for name, default in (
                ("message", cls.default_message or inspect.Parameter.empty),
                *((field.name, None) for field in cls.fields),
            )
        ])

    def __init__(self, *args, **kwargs) -> None:
        values = self._signature.bind(*args, **kwargs).arguments
        message = values.pop("message", self.default_message)
        details = []
        for field in self.fields:
            value = values.get(field.name)
            if value is not None:
                if field.show is not None:
                    label = field.label or field.name
                    details.append(f"{label}={field.show(value)}")
                value = field.store(value)
            setattr(self, field.name, value)
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)


class GraphError(ReproError):
    """Invalid graph construction or graph-query arguments."""


class PartitioningError(ReproError):
    """Path-based partitioning produced or received inconsistent data."""


class StorageError(StructuredError):
    """Storage arrays or the on-disk shard store are inconsistent.

    Covers both the in-memory path storage arrays (Fig. 4 layout) and
    the sharded on-disk graph store (:mod:`repro.storage`). For on-disk
    damage the structured fields name the casualty without message
    parsing: the ``path`` of the file at fault, the ``shard`` (part id)
    it belongs to when one is involved, and the damage ``kind``
    (``"torn"``, ``"bitrot"``, ``"missing-page"``, ``"manifest-lost"``,
    ``"manifest-torn"``, ``"manifest-corrupt"``, ``"manifest-format"``,
    ``"stale-manifest"``, ``"inconsistent"``, ...). All fields default
    to ``None`` so message-only raises (the in-memory arrays) are
    unchanged.
    """

    fields = (Field("path", store=str), Field("shard"), Field("kind"))


class SchedulingError(ReproError):
    """Path scheduling or dispatch received an impossible request."""


class SimulationError(ReproError):
    """The simulated GPU machine was driven into an invalid state."""


class MemoryCapacityError(SimulationError):
    """A simulated GPU ran out of global or shared memory."""


class InterconnectFault(StructuredError, SimulationError):
    """A fault injector failed a transfer (robustness testing).

    Carries the transfer endpoints when the injector knows them, so
    recovery code can tell *which* link misbehaved.
    """

    fields = (Field("src", show=None), Field("dst", show=None))
    default_message = "interconnect fault"


class TransientInterconnectFault(InterconnectFault):
    """A transfer failed but the link is expected to recover (retryable)."""


class PermanentInterconnectFault(InterconnectFault):
    """A link is down for good (or retries were exhausted)."""


class GPULostError(StructuredError, SimulationError):
    """A simulated GPU died mid-execution (fault injection)."""

    fields = (Field("gpu_id", show=None),)
    default_message = "GPU lost"


class ConvergenceError(StructuredError):
    """An iterative algorithm failed to converge within its round budget.

    Structured fields make stalled runs (chaos runs especially)
    diagnosable without parsing the message: ``rounds`` actually run,
    ``active_vertices`` still awaiting updates, and ``last_max_delta``,
    the largest state change observed in the final round (0.0 means the
    frontier was live but no state moved — a lost-update smell).
    """

    fields = (
        Field("rounds"),
        Field("active_vertices"),
        Field("last_max_delta", show=_g6),
    )


class StreamingError(ReproError):
    """A mutation batch could not be applied to the evolving graph.

    Raised for structurally invalid mutations (deleting an edge that does
    not exist, inserting a duplicate or self-loop edge, endpoints outside
    the vertex range) before any state is modified — a failed batch
    leaves the streaming session untouched.
    """


class VerificationError(ReproError):
    """A machine-checked invariant of :mod:`repro.verify` was violated."""


class ConfigurationError(ReproError):
    """An engine or machine was configured with invalid parameters."""


class ServeError(ReproError):
    """The query-serving layer was misused or failed structurally."""


class QueryAbortedError(StructuredError, ServeError):
    """Served queries failed and could not (or may not) be replayed.

    Structured fields name the blast radius without message parsing:
    the ``query_ids`` aborted, the ``tenants`` they belong to, the
    ``batch_id`` whose dispatch died, and the serve-wide
    ``launch_index`` where the fault struck.
    """

    fields = (
        Field("query_ids", "queries", show=list, store=tuple),
        Field("tenants", show=_distinct, store=tuple),
        Field("batch_id", "batch"),
        Field("launch_index", "launch"),
    )


class QueryShedError(StructuredError, ServeError):
    """A query was deterministically shed under overload.

    Raised (in strict mode) or recorded (otherwise) when the bounded
    admission queue is full and the tenant-fair shedding policy picks
    this query as the victim. Structured fields name the shed query,
    its tenant, and the queue depth at the shedding decision.
    """

    fields = (
        Field("query_id", "query"), Field("tenant"), Field("queue_depth")
    )


class DeadlineExceededError(StructuredError, ServeError):
    """A query missed its deadline under the active ``deadline_policy``.

    Carries the deadline and the virtual-clock time at which the miss
    was detected (admission time for ``reject``, completion time for
    ``abort``), so tail-latency reports need no message parsing.
    """

    fields = (
        Field("query_id", "query"),
        Field("tenant"),
        Field("deadline_s", show=_g6),
        Field("detected_s", show=_g6),
    )


class ArtifactError(ReproError):
    """A benchmark artifact (``BENCH_*.json``) is missing, unreadable,
    or violates its schema (wrong keys, bad version, NaN/negative
    measurements)."""


class CheckpointStoreError(StructuredError):
    """A durable checkpoint store is missing, corrupt, or inconsistent.

    Structured fields name the damage without message parsing: the
    ``run_dir`` holding the store, the ``checkpoint`` (round index)
    involved, the ``page`` file if a specific page is at fault, and the
    corruption ``kind`` (``"torn"``, ``"bitrot"``, ``"manifest-lost"``,
    ``"orphan"``, ``"missing-page"``, ...).
    """

    fields = (
        Field("run_dir", store=str),
        Field("checkpoint"),
        Field("page", store=str),
        Field("kind"),
    )


class InjectedCrashError(StructuredError, SimulationError):
    """A fault plan crashed the whole job at an injected crash point.

    This models a process death (power loss, OOM-kill): nothing
    in-process survives, only what the durable checkpoint store already
    committed. Recovery is whole-job restart (``repro resume``), never
    an in-run rollback, so engines must *not* catch this.

    ``crash_point`` names where the plan struck: ``"round-boundary"``,
    ``"mid-spill"``, or ``"mid-manifest"``.
    """

    fields = (Field("crash_point"), Field("round_index", "round"))
    default_message = "injected whole-job crash"
