"""Runtime fault injection driven by a :class:`~repro.faults.plan.FaultPlan`.

The injector is the bridge between a pre-computed plan and the machine:
the machine calls one hook per injection point, the injector keys the
plan's event tables by its own monotone call counters, and every
injection and recovery action is appended to a replayable ``trace``.
Because counters only ever increment and the plan is frozen before the
run, two runs of the same (program, plan) produce byte-identical traces.

Hooks:

- :meth:`FaultInjector.on_transfer` — per ``Interconnect.transfer``;
- :meth:`FaultInjector.on_replica_flush` — per replica-batch delivery
  attempt (retries consume fresh indices, so a resend can fail again);
- :meth:`FaultInjector.on_compute_round` — per kernel wave;
- :meth:`FaultInjector.on_store_write` — per durable checkpoint-store
  write (separate monotone counters per op: page writes vs manifest
  commits);
- :meth:`FaultInjector.note_recovery` — recovery code reporting what it
  did, for the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.errors import (
    PermanentInterconnectFault,
    TransientInterconnectFault,
)
from repro.faults.plan import (
    ComputeFault,
    FaultPlan,
    PERMANENT,
    StorageFault,
    SyncFault,
    TRANSIENT,
    TransferFault,
)


@dataclass(frozen=True)
class TraceEvent:
    """One injected fault or recovery action.

    ``detail`` is a tuple of sorted ``(key, value-repr)`` pairs so events
    are hashable and the whole trace can be digested for determinism
    checks.
    """

    kind: str
    detail: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def make(cls, kind: str, **detail) -> "TraceEvent":
        return cls(
            kind=kind,
            detail=tuple(
                sorted((k, repr(v)) for k, v in detail.items())
            ),
        )

    def __str__(self) -> str:
        pairs = ", ".join(f"{k}={v}" for k, v in self.detail)
        return f"{self.kind}({pairs})"


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan`.

    Counts calls per injection point, fires the plan's scheduled events,
    and records everything in :attr:`trace`.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.transfer_calls = 0
        self.sync_calls = 0
        self.compute_calls = 0
        #: per-op durable-store write counters (``op`` -> count).
        self.store_calls = {"page": 0, "manifest": 0}
        self.faults_injected = 0
        self.trace: List[TraceEvent] = []

    # -- hooks consumed by the machine ---------------------------------
    def on_transfer(self, src, dst, nbytes: int) -> Optional[float]:
        """Consult the plan for one ``Interconnect.transfer`` call.

        Returns a delay factor (``DEGRADE``), ``None`` (no fault), or
        raises a transient/permanent :class:`InterconnectFault`.
        """
        index = self.transfer_calls
        self.transfer_calls += 1
        fault: Optional[TransferFault] = self.plan.transfer_faults.get(index)
        if fault is None:
            return None
        self.faults_injected += 1
        self._note(
            "transfer_fault",
            index=index,
            fault=fault.kind,
            src=src,
            dst=dst,
            nbytes=nbytes,
        )
        if fault.kind == TRANSIENT:
            raise TransientInterconnectFault(
                f"injected transient fault on transfer #{index}",
                src=src,
                dst=dst,
            )
        if fault.kind == PERMANENT:
            raise PermanentInterconnectFault(
                f"injected permanent fault on transfer #{index}",
                src=src,
                dst=dst,
            )
        return fault.factor

    def on_replica_flush(
        self, src_gpu: int, dst_gpu: int, nbytes: int
    ) -> Optional[SyncFault]:
        """Consult the plan for one replica-batch delivery attempt."""
        index = self.sync_calls
        self.sync_calls += 1
        fault = self.plan.sync_faults.get(index)
        if fault is None:
            return None
        self.faults_injected += 1
        self._note(
            "sync_fault",
            index=index,
            fault=fault.kind,
            src=src_gpu,
            dst=dst_gpu,
            nbytes=nbytes,
        )
        return fault

    def on_compute_round(
        self, live_gpus: Iterable[int]
    ) -> Optional[ComputeFault]:
        """Consult the plan for one kernel wave.

        Events targeting already-dead GPUs are filtered out; a fully
        filtered event injects nothing.
        """
        index = self.compute_calls
        self.compute_calls += 1
        fault = self.plan.compute_faults.get(index)
        if fault is None:
            return None
        live = set(live_gpus)
        kill = fault.kill_gpu if fault.kill_gpu in live else None
        slowdowns = {
            gpu: factor
            for gpu, factor in fault.slowdowns.items()
            if gpu in live
        }
        if kill is None and not slowdowns and not fault.crash:
            return None
        self.faults_injected += 1
        self._note(
            "compute_fault",
            index=index,
            kill_gpu=kill,
            slowdowns=tuple(sorted(slowdowns.items())),
            crash=fault.crash,
        )
        return ComputeFault(
            kill_gpu=kill, slowdowns=slowdowns, crash=fault.crash
        )

    def on_store_write(self, op: str, path: str) -> Optional[StorageFault]:
        """Consult the plan for one durable-store write.

        ``op`` is ``"page"`` or ``"manifest"``; each op has its own
        monotone counter, so a plan entry with ``op="manifest"`` at
        index 0 strikes the first manifest commit regardless of how many
        pages were written before it. Returns the fault for the store to
        apply (the store owns the file, so it applies the damage) or
        ``None``.
        """
        index = self.store_calls.setdefault(op, 0)
        self.store_calls[op] = index + 1
        fault = self.plan.storage_faults.get(index)
        if fault is None or fault.op != op:
            return None
        self.faults_injected += 1
        self._note(
            "storage_fault",
            index=index,
            op=op,
            fault=fault.kind,
            path=path,
        )
        return fault

    # -- recovery reporting --------------------------------------------
    def note_recovery(self, kind: str, **detail) -> None:
        """Record a recovery action taken by the machine or engine."""
        self._note(f"recovery:{kind}", **detail)

    # ------------------------------------------------------------------
    def _note(self, kind: str, **detail) -> None:
        self.trace.append(TraceEvent.make(kind, **detail))
