"""Recovery policy knobs.

A :class:`RecoveryPolicy` turns the fault-tolerance machinery on and
configures every bound the runtime honours:

- transient transfer faults — bounded retry with exponential backoff
  at the interconnect, escalating to
  :class:`~repro.errors.PermanentInterconnectFault` when exhausted;
- dropped/corrupted replica batches — detected (missing ack / bad
  checksum in the modeled protocol), bounded resend;
- stragglers — a timeout relative to the median peer wave time, after
  which the straggler's wave is re-dispatched;
- GPU loss — checkpoint/rollback (every ``checkpoint_interval`` rounds,
  optionally incremental, spill cost modeled on the PCIe ring — see
  :mod:`repro.faults.checkpoint`) plus redistribution of the dead GPU's
  path groups across survivors (``redistribution_policy``).

Passing ``recovery=None`` to the machine/engine disables all of it:
faults then surface raw, which is exactly what the non-vacuity tests
use to prove the injections are real.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.knobs import check_fields, knob


@dataclass(frozen=True)
class RecoveryPolicy:
    """Bounds and switches for fault recovery."""

    #: Retries per transfer before a transient fault escalates.
    max_transfer_retries: int = knob(int, 4, minimum=0)
    #: First backoff wait (model seconds); doubles by ``backoff_multiplier``.
    backoff_base_s: float = knob(float, 1e-4, minimum=0)
    backoff_multiplier: float = knob(float, 2.0, minimum=1)
    #: Resends per replica batch before a sync fault escalates.
    max_sync_retries: int = knob(int, 4, minimum=0)
    #: A GPU is a straggler when its wave exceeds this multiple of the
    #: median peer wave time.
    straggler_timeout_factor: float = knob(float, 4.0, minimum=1)
    #: Re-dispatch straggler waves (cap their elapsed time at timeout +
    #: one nominal re-execution) instead of waiting them out.
    redispatch_stragglers: bool = True
    #: Keep checkpoints so GPU loss rolls back and replays instead of
    #: aborting the run.
    checkpoint_rounds: bool = True
    #: Checkpoint every K rounds. K = 1 snapshots every round (cheapest
    #: recovery, highest overhead); larger K amortizes the spill cost
    #: but a rollback replays up to K rounds.
    checkpoint_interval: int = knob(
        int, 1, minimum=1, sweep=True, flag="--checkpoint-interval",
        help="checkpoint every K rounds; a rollback replays up to K "
        "rounds (default: 1)",
    )
    #: Spill only the vertices dirtied since the previous checkpoint (a
    #: delta against the host-side shadow copy) instead of the full
    #: state. Restores stay bit-exact either way — the knob only changes
    #: the modeled spill cost.
    incremental_checkpoints: bool = knob(
        bool, False, sweep=True, flag="--incremental-checkpoints",
        flag_sets=True,
        help="spill only vertices dirtied since the previous checkpoint "
        "(full snapshots every --full-checkpoint-period)",
    )
    #: With incremental checkpoints, force a full snapshot every Nth
    #: checkpoint so delta chains stay bounded (1 = always full).
    full_checkpoint_period: int = knob(
        int, 8, minimum=1, sweep=True, flag="--full-checkpoint-period",
        help="with --incremental-checkpoints, force a full snapshot "
        "every Nth checkpoint (default: 8)",
    )
    #: Double-buffer checkpoint spills: the snapshot is staged into a
    #: second host buffer and drained over the PCIe ring *while the next
    #: rounds compute*, so only the spill time exceeding the subsequent
    #: compute window serializes. Restores stay bit-exact — the knob
    #: only changes how much spill cost the timeline hides
    #: (``checkpoint_hidden_time_s``).
    overlap_checkpoint_spill: bool = knob(
        bool, False, flag="--overlap-spill", flag_sets=True,
        help="double-buffer checkpoint spills so the PCIe drain hides "
        "under subsequent compute",
    )
    #: Durable checkpointing (see :mod:`repro.faults.store`):
    #: ``"none"`` keeps checkpoints in the in-memory host shadow only
    #: (a whole-process crash loses the run); ``"durable"`` additionally
    #: commits every checkpoint to the on-disk store under ``run_dir``
    #: (rollbacks still restore from the shadow; whole-job restart via
    #: ``repro resume`` becomes possible); ``"durable-verify"`` also
    #: restores *rollbacks* from the store's pages, verifying every
    #: checksum on the way back in.
    durability: str = knob(
        str, "none", choices=("none", "durable", "durable-verify"),
        flag="--durability",
        help="commit checkpoints to a durable on-disk store under "
        "--run-dir so a killed job can `repro resume` (default: none)",
    )
    #: Run directory holding the durable store (required when
    #: ``durability`` is not ``"none"``).
    run_dir: str = knob(
        str, "", flag="--run-dir",
        help="run directory for the durable checkpoint store "
        "(required with --durability)",
    )
    #: Durable checkpoints retained before GC (the window stretches
    #: back to the nearest full checkpoint so delta chains stay
    #: restorable).
    store_retain: int = knob(
        int, 2, minimum=1, flag="--store-retain",
        help="durable checkpoints retained before GC (default: 2)",
    )
    #: Compress cold durable pages (every checkpoint but the newest)
    #: with zlib, recommitted in the same manifest commit — the
    #: "checkpoint compaction" cost model.
    store_compact: bool = knob(
        bool, True, flag="--no-compact", flag_sets=False,
        help="disable zlib compression of cold durable pages",
    )
    #: How a dead GPU's partitions are re-placed: ``"locality"`` keeps
    #: each dependency-connected cluster co-resident on the survivor
    #: with the highest inter-group edge cut to its resident partitions;
    #: ``"edge-balance"`` spreads them to the least-loaded survivors.
    redistribution_policy: str = knob(
        str, "locality", name="redistribution",
        choices=("locality", "edge-balance"), sweep=True,
        flag="--redistribution",
        help="dead-GPU partition re-placement policy (default: locality)",
    )
    #: GPU losses survivable in one run before giving up.
    max_gpu_loss_recoveries: int = knob(int, 8, minimum=0)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.durability != "none" and not self.run_dir:
            raise ConfigurationError(
                f"durability={self.durability!r} requires run_dir"
            )

    def make_checkpoint_manager(self, machine, client):
        """Build a :class:`~repro.faults.checkpoint.CheckpointManager`
        bound to this policy.

        Engines call this through the policy object (duck-typed), so the
        ``core``/``gpu``/``baselines`` layers never import
        ``repro.faults`` at runtime."""
        from repro.faults.checkpoint import CheckpointManager

        return CheckpointManager(self, machine, client)

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ConfigurationError("attempt must be >= 1")
        return self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)
