"""Chaos harness: prove recovered runs converge to the fault-free state.

One *chaos cell* is (algorithm, engine, fault plan): the harness runs
the algorithm fault-free to get the golden fixed point, replays it under
the plan with recovery enabled, and certifies through the
:mod:`repro.verify` oracle that the recovered run

- converged,
- satisfies the program's own fixed-point equations, and
- matches the golden states (exactly for discrete programs, within the
  cross-engine tolerance band for contractions).

:func:`chaos_sweep` runs a grid of cells (algorithms x engines x seeds);
the ``repro chaos`` CLI wraps it. :func:`recovery_digest` hashes the
injector trace together with the final states — two runs of the same
seeded cell must produce identical digests (the determinism contract).
"""

from __future__ import annotations

import functools
import hashlib
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.algorithms import make_program
from repro.bench.runner import (  # noqa: F401  (re-exported engine sets)
    ALL_CHAOS_ENGINES,
    BASELINE_CHAOS_ENGINES,
    CHAOS_ENGINES,
    SCALAR_SIBLING,
    make_engine,
    run_cell,
)
from repro.errors import ConfigurationError, InjectedCrashError, ReproError
from repro.faults.injector import FaultInjector, TraceEvent
from repro.faults.plan import (
    STORAGE_CRASH,
    STORE_OP_MANIFEST,
    STORE_OP_PAGE,
    ComputeFault,
    FaultPlan,
    StorageFault,
)
from repro.faults.recovery import RecoveryPolicy
from repro.gpu.config import SCALED_MACHINE, MachineSpec
from repro.verify.oracle import (
    CONTRACTION_ALGORITHMS,
    equivalence_band,
    states_equivalent,
)
from repro.verify.structural import check_fixed_point_reached

def _require_round_engine(name: str) -> None:
    """Only registry rows that run rounds take fault plans."""
    if name not in ALL_CHAOS_ENGINES:
        raise ConfigurationError(
            f"chaos engine must be one of {ALL_CHAOS_ENGINES}, got {name!r}"
        )


def recovery_digest(
    trace: Sequence[TraceEvent], states: np.ndarray
) -> str:
    """Hash an injector trace + final states (determinism fingerprint)."""
    digest = hashlib.sha256()
    for event in trace:
        digest.update(str(event).encode())
        digest.update(b"\n")
    digest.update(np.ascontiguousarray(states, dtype=np.float64).tobytes())
    return digest.hexdigest()


def state_digest(states: np.ndarray, band: float = 0.0) -> str:
    """sha256 fingerprint of a state vector.

    With ``band == 0`` (discrete programs) the digest covers the raw
    float64 bytes, so digest equality *is* bit-equality. A positive band
    (contraction programs certified within a tolerance) quantizes to the
    band grid first; two states within band/2 of each other digest
    identically except at grid boundaries — the chaos report pairs the
    digests with the exact :func:`states_equivalent` verdict rather than
    replacing it.
    """
    arr = np.ascontiguousarray(states, dtype=np.float64)
    if band > 0.0:
        quantized = np.round(arr / band)
        finite = np.isfinite(quantized)
        out = np.where(finite, quantized, 0.0).astype(np.int64)
        digest = hashlib.sha256()
        digest.update(out.tobytes())
        # Non-finite sentinels (unreached +inf, NaN poison) hash by kind.
        digest.update(np.isnan(arr).tobytes())
        digest.update(np.isposinf(arr).tobytes())
        digest.update(np.isneginf(arr).tobytes())
        return digest.hexdigest()
    return hashlib.sha256(arr.tobytes()).hexdigest()


#: ``MachineStats`` counters a cell copies, under the same names.
_STATS_FIELDS = (
    "transfer_retries",
    "sync_retries",
    "stragglers_detected",
    "gpu_failures",
    "rounds_rolled_back",
    "recovery_time_s",
    "checkpoints_taken",
    "incremental_checkpoints_taken",
    "checkpoint_bytes_spilled",
    "checkpoint_time_s",
    "checkpoint_hidden_time_s",
    "rollback_replay_rounds",
)


@dataclass
class ChaosCellResult:
    """Outcome of one (algorithm, engine, plan) chaos cell."""

    algorithm: str
    engine: str
    seed: Optional[int]
    passed: bool
    detail: str
    faults_injected: int = 0
    transfer_retries: int = 0
    sync_retries: int = 0
    stragglers_detected: int = 0
    gpu_failures: int = 0
    rounds_rolled_back: int = 0
    recovery_time_s: float = 0.0
    trace_digest: str = ""
    error: Optional[str] = None
    # Checkpoint lifecycle (overhead vs recovery-time tradeoff).
    checkpoints_taken: int = 0
    incremental_checkpoints_taken: int = 0
    checkpoint_bytes_spilled: int = 0
    checkpoint_time_s: float = 0.0
    #: Spill seconds hidden under compute by double-buffered overlap.
    checkpoint_hidden_time_s: float = 0.0
    rollback_replay_rounds: int = 0
    # State digests: recovered must equal golden (bit-exact when the
    # equivalence band is 0, band-quantized otherwise).
    golden_digest: str = ""
    recovered_digest: str = ""
    digest_match: bool = False
    # Modeled end-to-end times, for the redistribution-policy comparison.
    golden_time_s: float = 0.0
    recovered_time_s: float = 0.0

    @property
    def label(self) -> str:
        return f"{self.algorithm}/{self.engine}/seed={self.seed}"

    @classmethod
    def from_run(
        cls,
        algorithm: str,
        engine: str,
        seed: Optional[int],
        passed: bool,
        detail: str,
        injector: Optional[FaultInjector] = None,
        golden=None,
        recovered=None,
        digests: Sequence[str] = ("", ""),
        error: Optional[str] = None,
    ) -> "ChaosCellResult":
        """An engine cell from its legs: ``golden`` / ``recovered`` are
        the two ``ExecutionResult``s, ``digests`` their state digests,
        and every counter is read off the recovered leg's stats. A cell
        that failed before producing a recovered leg passes neither; its
        trace digest (given an ``injector``) covers the trace alone."""
        cell = cls(algorithm, engine, seed, passed, detail, error=error)
        if injector is not None:
            cell.faults_injected = injector.faults_injected
            cell.trace_digest = recovery_digest(
                injector.trace,
                np.zeros(0) if recovered is None else recovered.states,
            )
        if recovered is not None:
            for name in _STATS_FIELDS:
                setattr(cell, name, getattr(recovered.stats, name))
            cell.golden_digest, cell.recovered_digest = digests
            cell.digest_match = digests[0] == digests[1]
            cell.golden_time_s = golden.stats.total_time_s
            cell.recovered_time_s = recovered.stats.total_time_s
        return cell

    @classmethod
    def from_serve(
        cls,
        algorithm: str,
        seed: int,
        passed: bool,
        detail: str,
        golden=None,
        recovered=None,
        error: Optional[str] = None,
    ) -> "ChaosCellResult":
        """A serving-layer cell from its two ``ServeReport`` legs (none
        for a cell that failed before producing them): replays stand in
        for rollbacks, the busy-time delta for recovery time."""
        cell = cls(algorithm, "serve", seed, passed, detail, error=error)
        if recovered is None:
            return cell
        # Imported lazily: repro.serve depends on repro.faults.plan, so
        # a module-level import here would be circular.
        from repro.serve.runner import serve_digest

        cell.golden_digest = serve_digest(golden)
        cell.recovered_digest = cell.trace_digest = serve_digest(recovered)
        cell.digest_match = cell.golden_digest == cell.recovered_digest
        cell.faults_injected = cell.gpu_failures = recovered.faults_injected
        cell.rounds_rolled_back = recovered.replays
        cell.recovery_time_s = max(
            0.0, recovered.gpu_busy_s - golden.gpu_busy_s
        )
        cell.golden_time_s = golden.makespan_s
        cell.recovered_time_s = recovered.makespan_s
        if recovered.failed:
            cell.error = recovered.failed[0].error
        return cell


def _verdict(*checks, success: str):
    """``(passed, detail)`` of a cell: the first failing ``(ok, detail)``
    check names the detail, ``success`` when none fails."""
    for ok, detail in checks:
        if not ok:
            return False, detail
    return True, success


def _engine_legs(graph, algorithm, machine, graph_name, program_kwargs):
    """The cell's engine legs: ``leg(engine_name, **run_options)`` runs a
    fresh engine and program (they cache graph-derived state and must
    not be shared) through the shared cell runner, never memoized."""
    return functools.partial(
        run_cell,
        algo=algorithm,
        graph_name=graph_name,
        machine=machine or MachineSpec(),
        graph=graph,
        program_kwargs=program_kwargs,
    )


def _serve_legs(graph, algorithm, machine, graph_name, seed, serve_knobs):
    """The cell's serve legs: ``leg(**overrides)`` serves the same seeded
    trace under the same knobs, never memoized."""
    # Imported lazily: repro.serve depends on repro.faults.plan, so a
    # module-level import here would be circular.
    from repro.serve.runner import run_serve_cell

    return functools.partial(
        run_serve_cell,
        algorithm,
        graph_name,
        seed=seed,
        machine=machine,
        graph=graph,
        use_cache=False,
        **serve_knobs,
    )


def run_chaos_cell(
    graph,
    algorithm: str,
    plan: FaultPlan,
    engine_name: str = "digraph",
    machine: Optional[MachineSpec] = None,
    recovery: Optional[RecoveryPolicy] = None,
    graph_name: str = "chaos",
    program_kwargs: Optional[Dict] = None,
    disable_recovery: bool = False,
) -> ChaosCellResult:
    """Golden run vs recovered faulted run for one cell.

    ``recovery`` defaults to :class:`RecoveryPolicy`'s defaults; pass an
    explicit policy to tighten or disable individual mechanisms, or set
    ``disable_recovery`` to run the faulted leg with no recovery at all
    (the non-vacuity mode: injected faults are expected to surface as
    failures).
    """
    if disable_recovery:
        recovery = None
    else:
        recovery = recovery if recovery is not None else RecoveryPolicy()
    _require_round_engine(engine_name)
    leg = _engine_legs(graph, algorithm, machine, graph_name, program_kwargs)
    # Vectorized cells take their golden from the scalar sibling: the
    # recovered batched run must converge to the scalar fixed point —
    # the strongest form of the batch-kernel equivalence contract under
    # faults.
    golden = leg(SCALAR_SIBLING.get(engine_name, engine_name))
    injector = FaultInjector(plan)
    try:
        faulted = leg(
            engine_name, fault_injector=injector, recovery=recovery
        )
    except ReproError as exc:
        return ChaosCellResult.from_run(
            algorithm,
            engine_name,
            plan.seed,
            False,
            f"faulted run raised {type(exc).__name__}",
            injector,
            error=str(exc),
        )

    program = make_program(algorithm, graph, **(program_kwargs or {}))
    band = 0.0
    if algorithm in CONTRACTION_ALGORITHMS:
        band = equivalence_band(program, graph)
    cmp = states_equivalent(golden.states, faulted.states, band)
    fixed = check_fixed_point_reached(program, graph, faulted.states)
    passed, detail = _verdict(
        (faulted.converged, "faulted run did not converge"),
        (cmp.passed, f"states diverge from golden: {cmp.detail}"),
        (fixed.passed, f"fixed point violated: {fixed.detail}"),
        success=cmp.detail,
    )
    return ChaosCellResult.from_run(
        algorithm,
        engine_name,
        plan.seed,
        passed,
        detail,
        injector,
        golden,
        faulted,
        (
            state_digest(golden.states, band),
            state_digest(faulted.states, band),
        ),
    )


def run_serve_chaos_cell(
    graph,
    algorithm: str = "mixed",
    kill_launch: int = 4,
    seed: int = 0,
    replay_on_fault: bool = True,
    machine: Optional[MachineSpec] = None,
    graph_name: str = "serve-chaos",
    **serve_knobs,
) -> ChaosCellResult:
    """GPU kill mid-query against the serving layer, digest-certified.

    The golden leg serves the seeded trace (24 queries unless
    ``serve_knobs`` — :func:`~repro.serve.runner.run_serve_cell`'s —
    say otherwise) fault-free; the recovered leg kills GPU 0 at
    serve-wide launch ``kill_launch`` and (by default) replays the dead
    batch. The cell passes only when the fault actually fired, no query
    failed, and every served answer matches the golden run bit for bit
    (:func:`repro.serve.runner.serve_digest` equality). With
    ``replay_on_fault=False`` this is the non-vacuity leg: the kill must
    surface as cleanly failed queries and a digest mismatch.
    """
    from repro.serve.runner import serve_digest

    leg = _serve_legs(
        graph, algorithm, machine, graph_name, seed,
        {"num_queries": 24, **serve_knobs},
    )
    golden = leg()
    recovered = leg(kill_launch=kill_launch, replay_on_fault=replay_on_fault)
    passed, detail = _verdict(
        (
            recovered.faults_injected > 0,
            f"vacuous: no fault fired at launch {kill_launch}",
        ),
        (
            not recovered.failed,
            f"{len(recovered.failed)} queries failed "
            f"(replay_on_fault={replay_on_fault})",
        ),
        (
            serve_digest(golden) == serve_digest(recovered),
            "served answers diverge from fault-free golden run",
        ),
        success=(
            f"{len(recovered.completed)} served answers match golden "
            f"after {recovered.replays}-query batch replay"
        ),
    )
    return ChaosCellResult.from_serve(
        f"serve-{algorithm}", seed, passed, detail, golden, recovered
    )


def run_serve_storm_cell(
    graph,
    algorithm: str = "mixed",
    seed: int = 0,
    kills: int = 3,
    first_kill_at: int = 2,
    kill_spacing: int = 4,
    machine: Optional[MachineSpec] = None,
    graph_name: str = "serve-storm",
    **serve_knobs,
) -> ChaosCellResult:
    """A correlated fault storm against the serving layer.

    ``kills`` GPU deaths land on the serve-wide launch counter with
    ``kill_spacing`` between them — close enough that later kills
    strike *during the replay* of earlier ones (replays consume fresh
    launch indices). ``serve_knobs`` are
    :func:`~repro.serve.runner.run_serve_cell`'s, over this cell's own
    defaults (32 queries, a replay budget of 3 with 5 us backoff). The
    cell certifies the ISSUE-8 contract: the server must either **fully
    recover to identical digests** (no overload knob set: every answer
    matches the fault-free golden leg) or **degrade/shed
    deterministically with structured errors** (an overload knob set:
    the storm replayed twice yields byte-identical
    ``ServeReport.metrics()`` and serve digests, and every non-answered
    query carries a structured error) — never a hang, never an
    unstructured exception.
    """
    from repro.serve.query import ANSWERED_STATUSES, QUERY_STATUSES
    from repro.serve.runner import serve_digest
    from repro.serve.server import OVERLOAD_KNOBS

    plan = FaultPlan.generate_storm(
        seed,
        (machine or MachineSpec()).num_gpus,
        kills=kills,
        first_kill_at=first_kill_at,
        kill_spacing=kill_spacing,
    )
    knobs = {
        "num_queries": 32,
        "max_replays": 3,
        "replay_backoff_us": 5.0,
        **serve_knobs,
    }
    leg = _serve_legs(graph, algorithm, machine, graph_name, seed, knobs)
    cell_algorithm = f"serve-storm-{algorithm}"
    try:
        golden = leg()
        stormed = leg(fault_plan=plan)
        replayed = leg(fault_plan=plan)
    except ReproError as exc:
        return ChaosCellResult.from_serve(
            cell_algorithm,
            seed,
            False,
            f"storm raised {type(exc).__name__} instead of degrading",
            error=str(exc),
        )

    storm_digest = serve_digest(stormed)
    bad = next(
        (r for r in stormed.results if r.status not in QUERY_STATUSES), None
    )
    mute = next(
        (
            r
            for r in stormed.results
            if r.status not in ANSWERED_STATUSES and not r.error
        ),
        None,
    )
    recovered_identical = (
        not stormed.failed and storm_digest == serve_digest(golden)
    )
    overloaded = any(knobs.get(name) for name in OVERLOAD_KNOBS)
    passed, detail = _verdict(
        (stormed.faults_injected > 0, "vacuous: storm injected no faults"),
        (bad is None, bad and f"unknown result status {bad.status!r}"),
        (
            mute is None,
            mute
            and f"query {mute.query.query_id} ended {mute.status!r} "
            "without a structured error",
        ),
        (
            storm_digest == serve_digest(replayed)
            and stormed.metrics() == replayed.metrics(),
            "storm replayed twice diverged (digest or metrics)",
        ),
        (
            overloaded or recovered_identical,
            f"{len(stormed.failed)} queries failed and digests "
            "diverge from golden with full replay budget",
        ),
        success=(
            f"recovered identical digests after {stormed.replays} "
            f"lane replays"
            if recovered_identical
            else (
                f"degraded deterministically: "
                f"{len(stormed.degraded)} degraded, "
                f"{len(stormed.shed)} shed, "
                f"{len(stormed.rejected)} rejected, "
                f"{len(stormed.failed)} aborted — all structured"
            )
        ),
    )
    return ChaosCellResult.from_serve(
        cell_algorithm, seed, passed, detail, golden, stormed
    )


# ---------------------------------------------------------------------------
# whole-job crash / restart certification
# ---------------------------------------------------------------------------

#: Crash points swept by the crash-restart cells — the values
#: :class:`~repro.errors.InjectedCrashError` carries in ``crash_point``.
CRASH_POINTS = ("round-boundary", "mid-spill", "mid-manifest")


def _pages_per_checkpoint(engine_name: str) -> int:
    """Durable pages one checkpoint commit writes (incl. the scalars
    page): the DiGraph family spills six vertex arrays, the
    range-partitioned baselines two."""
    return 7 if engine_name in CHAOS_ENGINES else 3


def crash_plan(
    crash_point: str,
    engine_name: str = "digraph",
    crash_round: int = 1,
) -> FaultPlan:
    """Build a :class:`FaultPlan` that kills the whole job at
    ``crash_point``.

    ``"round-boundary"`` crashes at compute round ``crash_round`` (which
    must exist: the run has to take more than ``crash_round`` rounds or
    the plan is vacuous). ``"mid-spill"`` crashes on the second page of
    the *second* checkpoint commit and ``"mid-manifest"`` on its
    manifest commit — the first commit is deliberately spared, because a
    crash before anything durable exists leaves nothing to resume from
    (that case is the structured-error path, not a restart cell).
    """
    if crash_point == "round-boundary":
        if crash_round < 0:
            raise ConfigurationError("crash_round must be >= 0")
        return FaultPlan(
            compute_faults={int(crash_round): ComputeFault(crash=True)}
        )
    if crash_point == "mid-spill":
        index = _pages_per_checkpoint(engine_name) + 1
        return FaultPlan(
            storage_faults={
                index: StorageFault(STORAGE_CRASH, op=STORE_OP_PAGE)
            }
        )
    if crash_point == "mid-manifest":
        return FaultPlan(
            storage_faults={
                1: StorageFault(STORAGE_CRASH, op=STORE_OP_MANIFEST)
            }
        )
    raise ConfigurationError(
        f"crash_point must be one of {CRASH_POINTS}, got {crash_point!r}"
    )


def _durable_policy(
    recovery: Optional[RecoveryPolicy], run_dir: str
) -> RecoveryPolicy:
    base = recovery if recovery is not None else RecoveryPolicy()
    durability = (
        base.durability if base.durability != "none" else "durable"
    )
    return replace(base, durability=durability, run_dir=run_dir)


def run_crash_restart_cell(
    graph,
    algorithm: str,
    run_dir: str,
    crash_point: str = "round-boundary",
    engine_name: str = "digraph",
    machine: Optional[MachineSpec] = None,
    recovery: Optional[RecoveryPolicy] = None,
    graph_name: str = "crash-restart",
    program_kwargs: Optional[Dict] = None,
    crash_round: int = 1,
) -> ChaosCellResult:
    """Kill the whole job at an injected crash point, restart it from
    the durable store under ``run_dir``, and certify the resumed run
    **bit-identical** to the uninterrupted golden run.

    Three legs: (1) golden — same engine, same recovery policy but
    ``durability="none"``, no faults; (2) crashed — durable policy +
    :func:`crash_plan`, which must die with
    :class:`~repro.errors.InjectedCrashError` (completing instead fails
    the cell as vacuous); (3) resumed — a fresh engine with
    ``resume=True`` and *no* fault plan, restarting from the last intact
    durable checkpoint.

    Unlike :func:`run_chaos_cell`'s GPU-kill cells (where
    redistribution reorders float summation and contraction algorithms
    only match within the equivalence band), the resumed trajectory
    here *is* the golden trajectory — restart replays from a checkpoint
    of that same trajectory with identical placement — so the digest
    comparison is band 0 (bit-exact) for **every** algorithm.
    """
    _require_round_engine(engine_name)
    durable = _durable_policy(recovery, run_dir)
    golden_policy = replace(durable, durability="none", run_dir="")
    leg = _engine_legs(graph, algorithm, machine, graph_name, program_kwargs)
    cell_algorithm = f"{algorithm}@{crash_point}"

    def fail(detail: str, error: Optional[str] = None) -> ChaosCellResult:
        return ChaosCellResult.from_run(
            cell_algorithm, engine_name, None, False, detail, error=error
        )

    golden = leg(engine_name, recovery=golden_policy)
    injector = FaultInjector(crash_plan(crash_point, engine_name, crash_round))
    try:
        leg(engine_name, fault_injector=injector, recovery=durable)
        return fail(
            f"vacuous: no crash fired at {crash_point} "
            f"(golden took {golden.stats.rounds} rounds)"
        )
    except InjectedCrashError:
        pass
    except ReproError as exc:
        return fail(
            f"crashed leg raised {type(exc).__name__} instead of "
            "InjectedCrashError",
            str(exc),
        )
    try:
        resumed = leg(engine_name, recovery=durable, resume=True)
    except ReproError as exc:
        return fail(f"resume raised {type(exc).__name__}", str(exc))

    fixed = check_fixed_point_reached(
        make_program(algorithm, graph, **(program_kwargs or {})),
        graph,
        resumed.states,
    )
    digests = (
        state_digest(golden.states, 0.0),
        state_digest(resumed.states, 0.0),
    )
    passed, detail = _verdict(
        (resumed.converged, "resumed run did not converge"),
        (
            digests[0] == digests[1],
            f"resumed states diverge bit-wise from golden after "
            f"{crash_point} crash",
        ),
        (fixed.passed, f"fixed point violated: {fixed.detail}"),
        success=(
            f"{crash_point} crash restarted bit-identical from the "
            "durable store"
        ),
    )
    return ChaosCellResult.from_run(
        cell_algorithm,
        engine_name,
        None,
        passed,
        detail,
        injector,
        golden,
        resumed,
        digests,
    )


def run_serve_crash_restart_cell(
    graph,
    run_dir: str,
    algorithm: str = "mixed",
    crash_launch: int = 12,
    seed: int = 0,
    machine: Optional[MachineSpec] = None,
    graph_name: str = "serve-crash",
    **serve_knobs,
) -> ChaosCellResult:
    """Whole-process crash mid-serve, restarted from the batch journal.

    The crashed leg journals every completed batch into
    ``run_dir/serve_journal.jsonl`` and dies with
    :class:`~repro.errors.InjectedCrashError` at serve-wide launch
    ``crash_launch``; the restarted leg replays journaled batches and
    re-executes only the tail. Passes when the crash actually fired and
    the restarted report's serve digest equals the uninterrupted golden
    run's — admitted-but-unanswered queries resume deterministically.
    ``serve_knobs`` are :func:`~repro.serve.runner.run_serve_cell`'s
    (24 queries unless they say otherwise).
    """
    from repro.faults.store import SERVE_JOURNAL_NAME, ServeJournal
    from repro.serve.runner import serve_digest

    journal_path = os.path.join(run_dir, SERVE_JOURNAL_NAME)
    leg = _serve_legs(
        graph, algorithm, machine, graph_name, seed,
        {"num_queries": 24, **serve_knobs},
    )
    cell_algorithm = f"serve-crash-{algorithm}"
    golden = leg()
    plan = FaultPlan(
        compute_faults={int(crash_launch): ComputeFault(crash=True)}
    )
    try:
        leg(fault_plan=plan, journal_path=journal_path)
        return ChaosCellResult.from_serve(
            cell_algorithm,
            seed,
            False,
            f"vacuous: no crash fired at launch {crash_launch} "
            f"(golden took {golden.launches} launches)",
        )
    except InjectedCrashError:
        pass
    resumed = leg(journal_path=journal_path)
    passed, detail = _verdict(
        (
            serve_digest(golden) == serve_digest(resumed),
            "restarted serve run diverges from golden",
        ),
        (
            not resumed.failed,
            f"{len(resumed.failed)} queries failed after restart",
        ),
        success=(
            f"restart replayed {len(ServeJournal(journal_path).load())} "
            "journaled batches and re-served the tail bit-identical to "
            "golden"
        ),
    )
    cell = ChaosCellResult.from_serve(
        cell_algorithm, seed, passed, detail, golden, resumed
    )
    # The restarted leg ran fault-free; the crash that killed its
    # predecessor is the cell's one fault.
    cell.faults_injected = 1
    return cell


def _load_header_graph(header: Dict):
    """The graph a run header describes — sharded store or dataset."""
    from repro.graph import datasets

    graph_dir = header.get("graph_dir")
    if graph_dir:
        from repro.storage import ShardedGraph

        return ShardedGraph(graph_dir).materialize()
    return datasets.load(
        header["dataset"],
        scale=float(header.get("scale", 1.0)),
        weighted=(header["algorithm"] == "sssp"),
    )


def resume_run(
    run_dir: str,
    machine: Optional[MachineSpec] = None,
    gpus: Optional[int] = None,
):
    """Whole-job restart from a durable run directory (``repro
    resume``).

    Reads the run header ``repro run --durability`` committed, rebuilds
    the workload it describes (from the sharded ``--graph-dir`` store
    when the header names one), and re-runs the engine with
    ``resume=True`` so execution restarts from the last intact durable
    checkpoint instead of round 0. Returns the engine's
    ``ExecutionResult``.

    ``gpus`` resumes onto a *different* GPU count than the header's
    (``repro resume --gpus N``): instead of refusing — the checkpointed
    scalars (partition placement, per-GPU ledgers) are only meaningful
    on the original machine shape — the run is **re-partitioned on
    restart**: the newest intact checkpoint's vertex values and active
    set warm-start a fresh run on the new machine (the delta-recompute
    mechanism), and a header ``graph_dir`` store is re-sharded for the
    new count through the streaming partitioner first. For monotone
    programs (wcc, bfs, sssp) the fixed point is placement-independent,
    so the resumed digest still matches the uninterrupted run — the
    repartition crash-restart test certifies exactly that.
    """
    from repro.faults.store import CheckpointStore

    store = CheckpointStore(run_dir)
    header = store.read_header()
    if header.get("mode", "engine") != "engine":
        raise ConfigurationError(
            f"run header mode {header.get('mode')!r} is not resumable "
            "by `repro resume` (only 'engine' runs are)"
        )
    header_gpus = int(header["gpus"]) if header.get("gpus") else None
    if (
        gpus is not None
        and header_gpus is not None
        and int(gpus) != header_gpus
    ):
        return _resume_repartitioned(
            run_dir, store, header, machine, int(gpus)
        )

    graph = _load_header_graph(header)
    spec = machine or SCALED_MACHINE
    target_gpus = int(gpus) if gpus is not None else header_gpus
    if target_gpus:
        spec = spec.scaled(target_gpus)
    return run_cell(
        header["engine"],
        header["algorithm"],
        header["dataset"],
        machine=spec,
        graph=graph,
        vectorized=bool(header.get("vectorized", False)),
        recovery=RecoveryPolicy(
            run_dir=run_dir, **dict(header.get("policy") or {})
        ),
        resume=True,
    )


def _resume_repartitioned(
    run_dir: str,
    store,
    header: Dict,
    machine: Optional[MachineSpec],
    gpus: int,
):
    """Resume onto a different GPU count by re-partitioning the restart.

    The durable scalars are bound to the original machine shape, so
    they are deliberately *not* restored; only the vertex state is: the
    newest intact checkpoint's ``values``/``active`` arrays warm-start
    a fresh engine on the ``gpus``-GPU machine, whose preprocessing
    re-partitions the path DAG for the new shape. A sharded
    ``graph_dir`` store is additionally re-sharded on disk for the new
    count (bit-identical by construction) under the run directory.
    """
    if gpus < 1:
        raise ConfigurationError(f"--gpus must be >= 1, got {gpus}")
    if not str(header.get("engine", "")).startswith("digraph"):
        raise ConfigurationError(
            f"engine {header.get('engine')!r} cannot resume onto a "
            "different GPU count (warm-start restart needs the digraph "
            "family)"
        )
    loaded = store.load_best()
    values = np.asarray(loaded.arrays["values"], dtype=np.float64)
    active = np.asarray(loaded.arrays["active"], dtype=bool)

    graph_dir = header.get("graph_dir")
    if graph_dir:
        from repro.storage import ShardedGraph, partition_graph

        old = ShardedGraph(graph_dir)
        new_dir = os.path.join(run_dir, f"repartition-{gpus}gpus")
        partition_graph(
            old.edge_chunk_source(),
            gpus,
            new_dir,
            policy=old.store.policy,
            num_vertices=old.num_vertices,
            seed=int(old.store.manifest.get("seed", 0)),
        )
        graph = ShardedGraph(new_dir).materialize()
    else:
        graph = _load_header_graph(header)

    spec = (machine or SCALED_MACHINE).scaled(gpus)
    engine = make_engine(
        header["engine"], spec,
        vectorized=bool(header.get("vectorized", False)),
    )
    program = make_program(header["algorithm"], graph)
    return engine.run(
        graph,
        program,
        graph_name=header["dataset"],
        initial_values=values,
        initial_active=active,
    )


def crash_restart_sweep(
    graph,
    algorithms: Sequence[str],
    engine_names: Sequence[str] = ("digraph",),
    crash_points: Sequence[str] = CRASH_POINTS,
    machine: Optional[MachineSpec] = None,
    recovery: Optional[RecoveryPolicy] = None,
    graph_name: str = "crash-restart",
    include_serve: bool = False,
    serve_crash_launch: int = 12,
) -> List[ChaosCellResult]:
    """The crash-restart grid: algorithms x engines x crash points.

    Each cell gets a fresh temporary run directory (removed afterwards).
    ``include_serve`` appends one journal-restart serve cell
    (:func:`run_serve_crash_restart_cell`). Pick algorithms that run
    more than two rounds (pagerank, wcc, ...) — a run that converges
    before the crash point is flagged as a vacuous failure, not skipped.
    """
    results: List[ChaosCellResult] = []
    for algorithm in algorithms:
        for engine_name in engine_names:
            for crash_point in crash_points:
                with tempfile.TemporaryDirectory(
                    prefix="repro-crash-"
                ) as cell_dir:
                    results.append(
                        run_crash_restart_cell(
                            graph,
                            algorithm,
                            cell_dir,
                            crash_point=crash_point,
                            engine_name=engine_name,
                            machine=machine,
                            recovery=recovery,
                            graph_name=graph_name,
                        )
                    )
    if include_serve:
        with tempfile.TemporaryDirectory(prefix="repro-crash-") as cell_dir:
            results.append(
                run_serve_crash_restart_cell(
                    graph,
                    cell_dir,
                    crash_launch=serve_crash_launch,
                    machine=machine,
                    graph_name=graph_name,
                )
            )
    return results


def chaos_sweep(
    graph,
    algorithms: Sequence[str],
    engine_names: Sequence[str] = ("digraph",),
    seeds: Sequence[int] = (0,),
    machine: Optional[MachineSpec] = None,
    recovery: Optional[RecoveryPolicy] = None,
    graph_name: str = "chaos",
    plan_options: Optional[Dict] = None,
    disable_recovery: bool = False,
    include_serve: bool = False,
    serve_kill_launch: int = 4,
    storm: bool = False,
    serve_storm_options: Optional[Dict] = None,
) -> List[ChaosCellResult]:
    """Run the chaos grid: algorithms x engines x seeds.

    ``plan_options`` are forwarded to :meth:`FaultPlan.generate` (fault
    rates, kill schedule); the number of GPUs is taken from ``machine``
    (or the default spec when None). ``include_serve`` appends one
    serving-layer kill/replay cell per seed
    (:func:`run_serve_chaos_cell` on a mixed-algorithm trace) so the
    query service faces the same sweep as the batch engines.

    ``storm=True`` switches the sweep to **correlated schedules**:
    engine cells run under :meth:`FaultPlan.generate_storm` plans
    (overlapping kills + link flaps; ``plan_options`` then feed the
    storm generator) and the serve cell becomes
    :func:`run_serve_storm_cell` (``serve_storm_options`` forwarded).
    """
    options = dict(plan_options or {})
    num_gpus = (machine or MachineSpec()).num_gpus
    results: List[ChaosCellResult] = []
    for seed in seeds:
        if storm:
            plan = FaultPlan.generate_storm(seed, num_gpus, **options)
        else:
            plan = FaultPlan.generate(seed, num_gpus, **options)
        for algorithm in algorithms:
            for engine_name in engine_names:
                results.append(
                    run_chaos_cell(
                        graph,
                        algorithm,
                        plan,
                        engine_name=engine_name,
                        machine=machine,
                        recovery=recovery,
                        graph_name=graph_name,
                        disable_recovery=disable_recovery,
                    )
                )
        if include_serve and storm:
            results.append(
                run_serve_storm_cell(
                    graph,
                    "mixed",
                    seed=seed,
                    machine=machine,
                    graph_name=graph_name,
                    **dict(serve_storm_options or {}),
                )
            )
        elif include_serve:
            results.append(
                run_serve_chaos_cell(
                    graph,
                    "mixed",
                    kill_launch=serve_kill_launch,
                    seed=seed,
                    replay_on_fault=not disable_recovery,
                    machine=machine,
                    graph_name=graph_name,
                )
            )
    return results
