"""Checkpoint lifecycle management for rollback recovery.

:class:`CheckpointManager` owns everything between "a round is about to
run" and "a failed round was rolled back":

- **interval** — a checkpoint is taken every ``checkpoint_interval``
  rounds (``RecoveryPolicy``), so a rollback replays up to K rounds from
  the last snapshot instead of exactly one;
- **incremental checkpoints** — with ``incremental_checkpoints`` on,
  only what changed since the previous checkpoint is spilled (a delta
  against the host-side shadow copy), falling back to a full snapshot
  every ``full_checkpoint_period``-th checkpoint so delta chains stay
  bounded. The diff is **per array**: each vertex array spills only its
  own dirty entries — activity flags flip far more often than the
  staleness stamps, so charging every array for the union of dirty
  vertices would overstate the delta;
- **host-spill cost** — checkpoint bytes cross the PCIe ring as real
  d2h transfers (:meth:`~repro.gpu.machine.Machine.checkpoint_spill`),
  surfacing as ``checkpoint_bytes_spilled`` / ``checkpoint_time_s`` in
  :class:`~repro.gpu.stats.MachineStats`; rollback reloads survivors'
  state h2d, attributed to recovery;
- **replay accounting** — ``rollback_replay_rounds`` counts the
  completed rounds a rollback discards plus the aborted attempt, the
  recovery-time half of the interval tradeoff;
- **double-buffered spill overlap** — with
  ``RecoveryPolicy.overlap_checkpoint_spill`` on, the snapshot is
  staged into a second host buffer and the PCIe drain proceeds while
  the following rounds compute. The spill settles at the next
  checkpoint / rollback / :meth:`~CheckpointManager.finish`: the part
  covered by the compute that ran since issue is *hidden*
  (``checkpoint_hidden_time_s``), only the exposed remainder is charged
  to the blocking timeline. Each :class:`CheckpointRecord` reports its
  own hidden fraction once settled.

The manager is engine-agnostic: clients expose their state through a
small duck-typed protocol (no inheritance required) —

- ``vertex_arrays() -> Dict[str, np.ndarray]`` — the per-vertex arrays
  (values, activity, stamps, ...) the checkpoint must cover, as live
  references; the manager copies;
- ``vertex_gpu() -> np.ndarray`` — each vertex's current GPU id (``-1``
  for host-resident/unowned vertices, which spill for free);
- ``capture_scalars() -> Dict`` — everything else (ledgers, counters,
  pending batches, placement) as fresh copies;
- ``restore_scalars(scalars) -> None`` — apply a captured scalar dict
  (the manager passes a private deep copy, so a checkpoint survives
  being restored more than once).

Restores are always bit-exact regardless of the incremental setting:
the shadow copy *is* the checkpoint, the full/incremental distinction
only changes the modeled spill cost — which keeps replay determinism
(recovered state must equal the golden run) trivially independent of
the cost knobs.

With ``RecoveryPolicy.durability`` set, every checkpoint is *also*
committed to the durable on-disk store (:mod:`repro.faults.store`)
under ``RecoveryPolicy.run_dir``: pages + write-ahead manifest,
checksums, retention/GC and cold-page compaction. ``"durable"`` keeps
in-run rollbacks on the shadow (the store only buys whole-job restart
via :meth:`CheckpointManager.resume_from_store`); ``"durable-verify"``
restores rollbacks from the store's pages too, verifying every
checksum — and falling back to an older intact checkpoint if the
newest is damaged.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CheckpointStoreError, SimulationError
from repro.gpu.machine import Machine

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.faults.recovery import RecoveryPolicy

#: Per-checkpoint metadata spilled alongside the payload (round index,
#: array manifest, dirty-set framing).
CHECKPOINT_HEADER_BYTES = 64
#: Modeled size of one ledger entry ((src, dst) pair + byte count).
BYTES_PER_LEDGER_ENTRY = 24
#: Modeled size of one pending/deferred list element.
BYTES_PER_LIST_ENTRY = 8


@dataclass(frozen=True)
class CheckpointRecord:
    """One taken checkpoint, for inspection and reporting.

    ``hidden_time_s`` is filled in when an overlapped spill settles
    (next checkpoint / rollback / ``finish``): of ``time_s``, the model
    seconds hidden under the compute that ran while the spill drained.
    Serialized (non-overlapped) spills report 0.
    """

    round_index: int
    kind: str  # "full" | "incremental"
    bytes_spilled: int
    dirty_vertices: int
    time_s: float
    hidden_time_s: float = 0.0

    @property
    def hidden_fraction(self) -> float:
        """Share of this spill the compute timeline absorbed."""
        return self.hidden_time_s / self.time_s if self.time_s > 0 else 0.0


def _modeled_scalar_bytes(scalars: Dict) -> int:
    """Modeled wire size of the non-vertex checkpoint payload."""
    total = 0
    for value in scalars.values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, dict):
            total += len(value) * BYTES_PER_LEDGER_ENTRY
        elif isinstance(value, (list, tuple)):
            total += len(value) * BYTES_PER_LIST_ENTRY
        else:
            total += 8
    return total


class CheckpointManager:
    """Interval/incremental checkpoints with host-spill cost modeling."""

    def __init__(
        self,
        policy: "RecoveryPolicy",
        machine: Machine,
        client,
    ) -> None:
        self.policy = policy
        self.machine = machine
        self.client = client
        #: Durable on-disk store (None when ``durability == "none"``).
        self.store = None
        if policy.durability != "none":
            from repro.faults.store import CheckpointStore

            self.store = CheckpointStore(
                policy.run_dir,
                retain=policy.store_retain,
                compact=policy.store_compact,
                injector=machine._structured_injector,
            )
        self.records: List[CheckpointRecord] = []
        #: Round index of the live checkpoint (None before the first).
        self.last_checkpoint_round: Optional[int] = None
        #: Host-side shadow of every vertex array at the last checkpoint
        #: — both the restore source and the dirty-diff baseline.
        self._shadow: Dict[str, np.ndarray] = {}
        self._shadow_vertex_gpu: Optional[np.ndarray] = None
        self._scalars: Optional[Dict] = None
        self._incrementals_since_full = 0
        self._rounds_mark = 0
        self._time_mark = (0.0, 0.0, 0.0)
        #: In-flight double-buffered spill: (spill seconds still
        #: draining, compute_time_s when it was issued, index of its
        #: record). Settled by :meth:`_settle_pending`.
        self._pending_spill_s = 0.0
        self._pending_compute_mark = 0.0
        self._pending_record_index: Optional[int] = None

    @property
    def has_checkpoint(self) -> bool:
        return self._scalars is not None

    # ------------------------------------------------------------------
    # taking checkpoints
    # ------------------------------------------------------------------
    def due(self, round_index: int) -> bool:
        """Whether a checkpoint should be taken before this round.

        The first round is always checkpointed; afterwards one is due
        every ``checkpoint_interval`` completed rounds. After a rollback
        the restored round equals ``last_checkpoint_round``, so replay
        resumes without redundantly re-spilling the state it just
        reloaded.
        """
        if self.last_checkpoint_round is None:
            return True
        interval = max(int(self.policy.checkpoint_interval), 1)
        return round_index - self.last_checkpoint_round >= interval

    # ------------------------------------------------------------------
    # double-buffered spill settlement
    # ------------------------------------------------------------------
    def _settle_pending(self) -> Tuple[float, float]:
        """Resolve the in-flight overlapped spill; (hidden, exposed).

        The spill drained concurrently with whatever compute ran since
        it was issued: ``min(spill, compute since issue)`` seconds were
        hidden (credited to ``checkpoint_hidden_time_s``), the exposed
        remainder serializes now (charged to ``transfer_time_s``, like
        a stream flush). The issuing :class:`CheckpointRecord` is
        patched with its settled ``hidden_time_s``.
        """
        if self._pending_spill_s <= 0.0:
            return (0.0, 0.0)
        stats = self.machine.stats
        compute_since = max(
            stats.compute_time_s - self._pending_compute_mark, 0.0
        )
        hidden = min(self._pending_spill_s, compute_since)
        exposed = self._pending_spill_s - hidden
        stats.checkpoint_hidden_time_s += hidden
        if exposed > 0.0:
            stats.transfer_time_s += exposed
        idx = self._pending_record_index
        if idx is not None:
            self.records[idx] = replace(
                self.records[idx], hidden_time_s=hidden
            )
        self._pending_spill_s = 0.0
        self._pending_record_index = None
        return (hidden, exposed)

    def finish(self) -> None:
        """Drain any still-in-flight overlapped spill at end of run.

        Engines call this after their main loop (success or abort): a
        spill issued by the final checkpoint has no later checkpoint or
        rollback to settle it, and an undrained buffer would silently
        make the last spill free.
        """
        self._settle_pending()

    def checkpoint(self, round_index: int) -> CheckpointRecord:
        """Snapshot the client's state and charge the host spill."""
        # Settle the previous double-buffered spill first: its drain
        # window ends where this checkpoint begins (single spare host
        # buffer — the next snapshot needs it).
        self._settle_pending()
        overlap = self.policy.overlap_checkpoint_spill
        arrays = self.client.vertex_arrays()
        vertex_gpu = np.asarray(self.client.vertex_gpu())
        full = (
            not self.policy.incremental_checkpoints
            or not self._shadow
            or self._incrementals_since_full + 1
            >= max(int(self.policy.full_checkpoint_period), 1)
        )
        if full or not self._shadow:
            dirty_by_array = {
                name: np.ones(vertex_gpu.shape[0], dtype=bool)
                for name in arrays
            }
        else:
            # != is elementwise and exact; inf == inf holds, so
            # untouched sentinel states (SSSP's +inf) stay clean.
            dirty_by_array = {
                name: arr != self._shadow[name]
                for name, arr in arrays.items()
            }
        dirty = np.zeros(vertex_gpu.shape[0], dtype=bool)
        for mask in dirty_by_array.values():
            dirty |= mask
        if full:
            self._incrementals_since_full = 0
        else:
            self._incrementals_since_full += 1

        for name, arr in arrays.items():
            self._shadow[name] = arr.copy()
        self._shadow_vertex_gpu = vertex_gpu.copy()
        self._scalars = self.client.capture_scalars()

        stats = self.machine.stats
        if self.store is not None:
            # Durable commit: pages first, manifest rename last. An
            # injected mid-spill / mid-manifest crash escapes from here
            # as InjectedCrashError — deliberately uncaught, the whole
            # job is dead and only `repro resume` brings it back.
            self.store.commit_checkpoint(
                round_index,
                "full" if full else "incremental",
                arrays=self._shadow,
                dirty_by_array=None if full else dirty_by_array,
                scalars=self._scalars,
                rounds_mark=stats.rounds,
                dead_gpus=self.machine.dead_gpus,
                incrementals_since_full=self._incrementals_since_full,
            )
        dirty_count = int(np.count_nonzero(dirty))
        scalar_bytes = _modeled_scalar_bytes(self._scalars)
        total_spilled = 0
        total_time = 0.0
        live = self.machine.live_gpu_ids()
        for i, gpu in enumerate(live):
            owned = vertex_gpu == gpu
            nbytes = CHECKPOINT_HEADER_BYTES + sum(
                int(np.count_nonzero(dirty_by_array[name] & owned))
                * arr.itemsize
                for name, arr in arrays.items()
            )
            if i == 0:
                # The bookkeeping payload (ledgers, pending batches,
                # placement) is gathered through one GPU's channel.
                nbytes += scalar_bytes
            total_time += self.machine.checkpoint_spill(
                gpu, nbytes, overlap=overlap
            )
            total_spilled += nbytes
        stats.checkpoints_taken += 1
        if not full:
            stats.incremental_checkpoints_taken += 1
        # Work/time marks for rollback: taken AFTER the spill charges,
        # so checkpoint overhead is never mis-attributed as lost work.
        self._rounds_mark = stats.rounds
        self._time_mark = (
            stats.compute_time_s,
            stats.transfer_time_s,
            stats.async_comm_time_s,
        )
        self.last_checkpoint_round = round_index
        record = CheckpointRecord(
            round_index=round_index,
            kind="full" if full else "incremental",
            bytes_spilled=total_spilled,
            dirty_vertices=dirty_count,
            time_s=total_time,
        )
        if overlap and total_time > 0.0:
            # The spill drains while the next rounds compute; settled
            # against the compute window at the next checkpoint /
            # rollback / finish.
            self._pending_spill_s = total_time
            self._pending_compute_mark = stats.compute_time_s
            self._pending_record_index = len(self.records)
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # rollback
    # ------------------------------------------------------------------
    def rollback(self, failed_round_index: int) -> int:
        """Restore the live checkpoint; returns its round index.

        ``failed_round_index`` is the round counter at the failure, so
        ``failed - checkpointed`` completed rounds are discarded; those
        plus the aborted attempt land in ``rollback_replay_rounds``.
        Work and time counters are deliberately *not* restored (the
        aborted work really happened); the time lost since the
        checkpoint is attributed to ``recovery_time_s``, and survivors'
        state reload is charged as h2d traffic.
        """
        if self._scalars is None:
            raise SimulationError("rollback without a checkpoint")
        stats = self.machine.stats
        # An overlapped spill still in flight belongs to the checkpoint
        # we are rolling back TO — settle it first (its exposed
        # remainder is checkpoint overhead, not lost work, so it is
        # carved out of the delta below).
        _, exposed = self._settle_pending()
        lost = (
            (stats.compute_time_s - self._time_mark[0])
            + (stats.transfer_time_s - self._time_mark[1] - exposed)
            + (stats.async_comm_time_s - self._time_mark[2])
        )
        if lost > 0:
            stats.recovery_time_s += lost

        if self.policy.durability == "durable-verify":
            # Restore from the durable pages instead of trusting the
            # in-memory shadow: every checksum is verified on the way
            # back in, and a damaged newest checkpoint falls back to
            # the previous intact one (a deeper rollback).
            self._install(self.store.load_best())
        else:
            self._install()
        replayed = max(
            failed_round_index - int(self.last_checkpoint_round), 0
        ) + 1
        stats.rollback_replay_rounds += replayed
        stats.rounds_rolled_back += 1
        return int(self.last_checkpoint_round)

    def _install(self, loaded=None) -> None:
        """Install the live checkpoint into the client.

        With ``loaded`` (a :class:`~repro.faults.store.LoadedCheckpoint`)
        the durable checkpoint first becomes the live one: shadow,
        scalars, round / rounds / incremental marks, the GPUs already
        dead at that round, and the placement it restores. Then the
        client's arrays and scalars are restored, survivors are charged
        their h2d state reload, the round budget is rewound (replayed
        rounds don't consume it) and time is re-marked, so a second
        rollback from this checkpoint doesn't re-attribute this
        restore's cost as lost work.
        """
        arrays = self.client.vertex_arrays()
        if loaded is not None:
            for name in arrays:
                if name not in loaded.arrays:
                    raise CheckpointStoreError(
                        f"store has no page for array {name!r}",
                        run_dir=self.store.run_dir,
                        checkpoint=loaded.round_index,
                        kind="missing-page",
                    )
                self._shadow[name] = loaded.arrays[name].copy()
            self._scalars = loaded.scalars
            self.last_checkpoint_round = loaded.round_index
            self._rounds_mark = loaded.rounds_mark
            self._incrementals_since_full = loaded.incrementals_since_full
        for name, arr in arrays.items():
            arr[:] = self._shadow[name]
        self.client.restore_scalars(copy.deepcopy(self._scalars))
        if loaded is not None:
            for gpu in loaded.dead_gpus:
                self.machine.kill_gpu(gpu)
            self._shadow_vertex_gpu = np.asarray(
                self.client.vertex_gpu()
            ).copy()

        # Survivors reload their full vertex state from the host copy;
        # a dead GPU's share is gone with it (its partitions' reload is
        # accounted by the redistribution path instead).
        bytes_per_vertex = sum(arr.itemsize for arr in arrays.values())
        for gpu in self.machine.live_gpu_ids():
            owned = int(np.count_nonzero(self._shadow_vertex_gpu == gpu))
            if owned:
                self.machine.checkpoint_restore(
                    gpu, owned * bytes_per_vertex
                )
        stats = self.machine.stats
        stats.rounds = self._rounds_mark
        self._time_mark = (
            stats.compute_time_s,
            stats.transfer_time_s,
            stats.async_comm_time_s,
        )

    # ------------------------------------------------------------------
    # whole-job restart
    # ------------------------------------------------------------------
    def resume_from_store(self):
        """Reload the last durable checkpoint into a *fresh* run.

        Called once, before the engine's first round, in a new process
        standing in for the crashed one: verifies and materializes the
        newest intact checkpoint from the durable store and installs it
        (:meth:`_install`), re-killing the GPUs that were already dead.
        Returns the :class:`~repro.faults.store.LoadedCheckpoint`; the
        engine resumes its round loop at ``loaded.round_index``
        (``due`` is False there, so the reloaded state is not
        redundantly re-spilled).
        """
        if self.store is None:
            raise SimulationError(
                "resume_from_store requires durability != 'none'"
            )
        loaded = self.store.load_best()
        self._install(loaded)
        return loaded
