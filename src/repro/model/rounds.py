"""The round driver: the one loop every engine runs through.

The paper's system and both comparators are "run rounds on the simulated
machine until no vertex is active". What differs between them is the
*schedule* — which units run in a round and in what order (the
algorithm/schedule split GraphIt makes) — so that is all an engine
keeps. This module owns the rest: resume-or-prologue, the convergence
test, checkpoint cadence, GPU-loss rollback, the round count, settling
the last checkpoint spill, and the epilogue that turns a finished run
into an :class:`~repro.bench.results.ExecutionResult`.

An engine hands the driver its *run object* (``core.engine._Run``, a
``baselines.common.BaselineFaultHarness`` subclass). The driver reads
``machine``, ``states``, ``round_records`` and ``checkpoints`` (a
``CheckpointManager`` or None, whose client the run object also is),
sets ``last_max_delta``, and calls five methods:

- ``prologue()`` — work before round 0 of a fresh run;
- ``run_round(round_index)`` — one round of the engine's schedule;
- ``redistribute(dead_gpus) -> List[int]`` — re-place every dead GPU's
  partitions on the survivors by the engine's own rule; returns the byte
  size of each moved partition;
- ``invariant_checks() -> List[CheckResult]`` — engine-specific post-run
  checks (``verify_invariants``);
- ``extras() -> Dict[str, float]`` — structural extras for the result.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.results import ExecutionResult
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    GPULostError,
    PermanentInterconnectFault,
)


def checkpoint_manager(machine, client):
    """The ``CheckpointManager`` serving ``client`` under the machine's
    recovery policy, or None when rounds are not checkpointed. Built by
    the policy itself (duck-typed), so the ``core`` and ``baselines``
    layers never import ``repro.faults``."""
    recovery = machine.recovery
    if (
        recovery is not None
        and getattr(recovery, "checkpoint_rounds", False)
        and hasattr(recovery, "make_checkpoint_manager")
    ):
        return recovery.make_checkpoint_manager(machine, client)
    return None


def drive_rounds(run, max_rounds: int, resume: bool = False) -> bool:
    """Run rounds until no vertex is active; returns ``converged``.

    With a recovery policy, the checkpoint manager snapshots the logical
    state every ``checkpoint_interval`` rounds. A GPU death mid-round —
    or a permanently failed link, indistinguishable from the GPU behind
    it being unreachable — fences the GPU off, rolls back to the last
    checkpoint, redistributes *every* dead GPU's partitions (the restored
    placement predates any death since that checkpoint) and replays;
    survivors reload the moved partitions from the host, billed as
    ``retransferred_bytes``. Replayed rounds do not consume the
    convergence budget; they are bounded by ``max_gpu_loss_recoveries``.
    The original error is re-raised when recovery is off, no checkpoint
    exists, the failure names no GPU, the budget is spent, or nobody
    survives.

    ``resume=True`` reloads the newest intact durable checkpoint instead
    of running the prologue: every durable checkpoint was taken *after*
    it, so its effects are already in the restored state.
    """
    machine, manager = run.machine, run.checkpoints
    stats = machine.stats
    if resume:
        if manager is None or manager.store is None:
            raise ConfigurationError(
                "resume requires a recovery policy with "
                "durability != 'none' and a run_dir"
            )
        rounds = int(manager.resume_from_store().round_index)
    else:
        run.prologue()
        rounds = 0
    rollbacks = 0
    try:
        while rounds < max_rounds:
            if not run.states.any_active():
                return True
            if manager is not None and manager.due(rounds):
                manager.checkpoint(rounds)
            # Only the budget's final round can end in ConvergenceError;
            # its before-image yields that error's ``last_max_delta``.
            final = rounds + 1 == max_rounds
            before = run.states.copy_values() if final else None
            try:
                run.run_round(rounds)
            except (GPULostError, PermanentInterconnectFault) as exc:
                if isinstance(exc, GPULostError):
                    gpu_id = exc.gpu_id
                else:
                    gpu_id = exc.dst if isinstance(exc.dst, int) else exc.src
                rollbacks += 1
                if (
                    manager is None
                    or not manager.has_checkpoint
                    or not isinstance(gpu_id, int)
                    or rollbacks > machine.recovery.max_gpu_loss_recoveries
                ):
                    raise
                # Idempotent: a compute-wave kill already marked the GPU
                # dead; a failed link reaches here with it still "up".
                machine.kill_gpu(gpu_id)
                rounds = manager.rollback(rounds)
                if not machine.live_gpu_ids():
                    raise
                moved = run.redistribute(sorted(machine.dead_gpus))
                stats.retransferred_bytes += sum(moved)
                if machine._structured_injector is not None:
                    machine._structured_injector.note_recovery(
                        "gpu_loss", gpu=gpu_id, moved=len(moved), round=rounds
                    )
                continue
            rounds += 1
            stats.rounds += 1
            if final:
                run.last_max_delta = _max_delta(before, run.states.values)
        return not run.states.any_active()
    finally:
        # Settle any in-flight double-buffered checkpoint spill: its
        # exposed remainder must land on the timeline even when the run
        # converges (or aborts) right after it.
        if manager is not None:
            manager.finish()


def _max_delta(before: np.ndarray, after: np.ndarray) -> float:
    """Largest state change of a round; a move involving an infinity
    (or NaN poison) counts as inf."""
    moved = before != after
    old, new = before[moved], after[moved]
    if not (np.isfinite(old) & np.isfinite(new)).all():
        return float("inf")
    return float(np.abs(new - old).max(initial=0.0))


def finish_run(
    run,
    config,
    engine: str,
    graph_name: str,
    converged: bool,
    strict_convergence: bool,
    started: float,
) -> ExecutionResult:
    """The one epilogue: budget error, invariants, result record."""
    states, stats = run.states, run.machine.stats
    if not converged and strict_convergence:
        raise ConvergenceError(
            f"{states.program.name} did not converge within "
            f"{config.max_rounds} rounds",
            rounds=stats.rounds,
            active_vertices=states.num_active,
            last_max_delta=run.last_max_delta,
        )
    if config.verify_invariants:
        from repro.verify.report import VerificationReport
        from repro.verify.structural import check_fixed_point_reached

        checks = run.invariant_checks()
        if converged:
            checks.append(
                check_fixed_point_reached(
                    states.program, states.graph, states.values
                )
            )
        VerificationReport(checks).raise_if_failed()
    return ExecutionResult(
        engine=engine,
        algorithm=states.program.name,
        graph_name=graph_name,
        converged=converged,
        rounds=stats.rounds,
        states=states.values.copy(),
        stats=stats,
        round_records=run.round_records,
        wall_seconds=time.perf_counter() - started,
        extras=run.extras(),
    )
