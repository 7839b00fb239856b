"""Fault injection and recovery for the simulated multi-GPU machine.

The robustness subsystem (see ``docs/robustness.md``):

- :mod:`repro.faults.plan` — seeded, deterministic fault schedules
  (:class:`FaultPlan`) covering interconnect faults, replica-batch
  drops/corruptions, GPU deaths, stragglers, whole-job crashes, and
  storage faults against the durable checkpoint store;
- :mod:`repro.faults.injector` — the runtime :class:`FaultInjector`
  that fires a plan's events against the machine's hooks and records a
  replayable trace;
- :mod:`repro.faults.recovery` — :class:`RecoveryPolicy`, the knobs for
  retries, backoff, straggler re-dispatch, checkpoint/rollback,
  durability, and GPU-loss degradation;
- :mod:`repro.faults.checkpoint` — :class:`CheckpointManager`, the
  interval/incremental checkpoint lifecycle with host-spill cost
  modeling shared by the DiGraph engines and the baselines;
- :mod:`repro.faults.store` — :class:`CheckpointStore`, the durable
  crash-consistent page + write-ahead-manifest store behind
  ``repro resume`` / ``repro scrub``, and :class:`ServeJournal`, the
  serving layer's batch-completion journal;
- :mod:`repro.faults.chaos` — the ``repro chaos`` harness: every cell
  is a row one runner takes through golden, crash (restart rows) and
  final legs; a ``ReproError`` after golden is a failed cell.
"""

from repro.faults.chaos import (
    ALL_CHAOS_ENGINES,
    BASELINE_CHAOS_ENGINES,
    CHAOS_ENGINES,
    CRASH_POINTS,
    ChaosCellResult,
    chaos_sweep,
    crash_plan,
    crash_restart_sweep,
    recovery_digest,
    resume_run,
    run_chaos_cell,
    run_crash_restart_cell,
    run_serve_chaos_cell,
    run_serve_crash_restart_cell,
    run_serve_storm_cell,
    state_digest,
)
from repro.faults.checkpoint import CheckpointManager, CheckpointRecord
from repro.faults.injector import FaultInjector, TraceEvent
from repro.faults.plan import (
    CORRUPT,
    DEGRADE,
    DROP,
    PERMANENT,
    STORAGE_BITROT,
    STORAGE_CRASH,
    STORAGE_LOST,
    STORAGE_TORN,
    STORE_OP_MANIFEST,
    STORE_OP_PAGE,
    TRANSIENT,
    ComputeFault,
    FaultPlan,
    StorageFault,
    SyncFault,
    TransferFault,
)
from repro.faults.recovery import RecoveryPolicy
from repro.faults.store import (
    CheckpointStore,
    LoadedCheckpoint,
    ScrubReport,
    ServeJournal,
)

__all__ = [
    "ALL_CHAOS_ENGINES",
    "BASELINE_CHAOS_ENGINES",
    "CHAOS_ENGINES",
    "CORRUPT",
    "CRASH_POINTS",
    "DEGRADE",
    "DROP",
    "PERMANENT",
    "STORAGE_BITROT",
    "STORAGE_CRASH",
    "STORAGE_LOST",
    "STORAGE_TORN",
    "STORE_OP_MANIFEST",
    "STORE_OP_PAGE",
    "TRANSIENT",
    "ChaosCellResult",
    "CheckpointManager",
    "CheckpointRecord",
    "CheckpointStore",
    "ComputeFault",
    "FaultInjector",
    "FaultPlan",
    "LoadedCheckpoint",
    "RecoveryPolicy",
    "ScrubReport",
    "ServeJournal",
    "StorageFault",
    "SyncFault",
    "TraceEvent",
    "TransferFault",
    "chaos_sweep",
    "crash_plan",
    "crash_restart_sweep",
    "recovery_digest",
    "resume_run",
    "run_chaos_cell",
    "run_crash_restart_cell",
    "run_serve_chaos_cell",
    "run_serve_crash_restart_cell",
    "run_serve_storm_cell",
    "state_digest",
]
