"""Chaos harness: prove faulted and restarted runs end where fault-free
runs do.

A *chaos cell* is a row of data (:class:`_Row`) that one runner,
:func:`_run_row`, runs and certifies: engine rows through the
:mod:`repro.verify` oracle, serve rows through serve digests. The five
``run_*_cell`` functions each build one row; :func:`chaos_sweep` and
:func:`crash_restart_sweep` run grids of them (the ``repro chaos``
CLI). :func:`recovery_digest` hashes the injector trace with the final
states: a seeded cell run twice gives identical digests (the
determinism contract).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

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
        label = f"{self.algorithm}/{self.engine}"
        return label if self.seed is None else f"{label}/seed={self.seed}"


def _verdict(*checks, success: str):
    """``(passed, detail)`` of a cell: the first failing ``(ok, detail)``
    check names the detail, ``success`` when none fails."""
    for ok, detail in checks:
        if not ok:
            return False, detail
    return True, success


@dataclass
class _Row:
    """One chaos cell as data, run by :func:`_run_row`.

    ``leg(**options)`` runs one leg from scratch (a fresh engine and
    program, or a fresh server, never memoized); ``golden``, ``crash``
    and ``final`` are the options of the three legs. A restart row has a
    ``crash`` leg, planted at ``crash_at``; a ``storm`` row runs its
    final leg twice. The subclasses are the two targets: ``span`` says
    how long the golden leg took, ``certify`` judges the final leg.
    """

    algorithm: str
    engine: str
    seed: Optional[int]
    leg: Callable[..., object]
    final: Dict
    golden: Dict = field(default_factory=dict)
    crash: Optional[Dict] = None
    crash_at: str = ""
    storm: bool = False

    def fail(self, detail: str, exc: Optional[Exception] = None):
        cell = ChaosCellResult(
            self.algorithm, self.engine, self.seed, False, detail,
            error=None if exc is None else str(exc),
        )
        # A fault plan fired in the failed leg still reports its trace.
        injector = self.final.get("fault_injector")
        if injector is not None:
            cell.faults_injected = injector.faults_injected
            cell.trace_digest = recovery_digest(injector.trace, np.zeros(0))
        return cell


def _run_row(row: _Row) -> ChaosCellResult:
    """The one leg sequence of every chaos cell.

    The golden leg runs fault-free. A restart row's crash leg must then
    die with :class:`~repro.errors.InjectedCrashError`: completing fails
    the cell as vacuous, any other :class:`~repro.errors.ReproError`
    fails it too. The final leg (faulted, or resumed after the crash)
    runs next, twice for a storm row; a ``ReproError`` from it fails the
    cell with ``error`` set. Otherwise the row's target certifies it.
    """
    golden = row.leg(**row.golden)
    if row.crash is not None:
        try:
            row.leg(**row.crash)
        except InjectedCrashError:
            pass
        except ReproError as exc:
            return row.fail(
                f"crashed leg raised {type(exc).__name__} instead of "
                "InjectedCrashError", exc,
            )
        else:
            return row.fail(
                f"vacuous: no crash fired at {row.crash_at} "
                f"(golden took {row.span(golden)})"
            )
    try:
        final = row.leg(**row.final)
        again = row.leg(**row.final) if row.storm else None
    except ReproError as exc:
        leg = "resumed" if row.crash is not None else "faulted"
        return row.fail(f"{leg} leg raised {type(exc).__name__}", exc)
    return row.certify(golden, final, again)


@dataclass
class _EngineRow(_Row):
    """Legs through :func:`~repro.bench.runner.run_cell`. The final
    states must converge, satisfy ``program``'s fixed-point equations
    and match golden within ``band``; a restart row's state digests must
    match bit for bit too."""

    graph: object = None
    program: object = None
    band: float = 0.0

    def span(self, golden) -> str:
        return f"{golden.stats.rounds} rounds"

    def certify(self, golden, final, again) -> ChaosCellResult:
        exact = self.crash is not None
        cmp = states_equivalent(golden.states, final.states, self.band)
        fixed = check_fixed_point_reached(
            self.program, self.graph, final.states
        )
        digests = [state_digest(x.states, self.band) for x in (golden, final)]
        passed, detail = _verdict(
            (final.converged, "run did not converge"),
            (
                not exact or digests[0] == digests[1],
                f"resumed states diverge bit-wise from golden after "
                f"{self.crash_at} crash",
            ),
            (cmp.passed, f"states diverge from golden: {cmp.detail}"),
            (fixed.passed, f"fixed point violated: {fixed.detail}"),
            success=(
                f"{self.crash_at} crash restarted bit-identical from the "
                "durable store" if exact else cmp.detail
            ),
        )
        # The trace is the faulted leg's, or the crashed one's.
        injector = (self.crash or self.final)["fault_injector"]
        return ChaosCellResult(
            self.algorithm, self.engine, self.seed, passed, detail,
            faults_injected=injector.faults_injected,
            trace_digest=recovery_digest(injector.trace, final.states),
            golden_digest=digests[0],
            recovered_digest=digests[1],
            digest_match=digests[0] == digests[1],
            golden_time_s=golden.stats.total_time_s,
            recovered_time_s=final.stats.total_time_s,
            **{name: getattr(final.stats, name) for name in _STATS_FIELDS},
        )


@dataclass
class _ServeRow(_Row):
    """Legs through :func:`~repro.serve.runner.run_serve_cell`. A
    faulted leg must have fired, every query must end in a known status
    and carry a structured error unless answered, and a storm must
    replay identically. Then every answer must match golden
    (:func:`~repro.serve.runner.serve_digest`), worded by ``success``,
    unless an ``overloaded`` storm degraded deterministically."""

    success: Optional[Callable[[object], str]] = None
    overloaded: bool = False

    def span(self, golden) -> str:
        return f"{golden.launches} launches"

    def certify(self, golden, final, again) -> ChaosCellResult:
        from repro.serve.query import ANSWERED_STATUSES, QUERY_STATUSES
        from repro.serve.runner import serve_digest

        golden_digest, digest = serve_digest(golden), serve_digest(final)
        recovered = not final.failed and digest == golden_digest
        bad = [r for r in final.results if r.status not in QUERY_STATUSES]
        mute = [
            r for r in final.results
            if r.status not in ANSWERED_STATUSES and not r.error
        ]
        passed, detail = _verdict(
            (
                self.crash is not None or final.faults_injected > 0,
                f"vacuous: no fault fired (golden took {self.span(golden)})",
            ),
            (not bad, bad and f"unknown result status {bad[0].status!r}"),
            (
                not mute,
                mute and f"query {mute[0].query.query_id} ended "
                f"{mute[0].status!r} without a structured error",
            ),
            (
                again is None or (
                    digest == serve_digest(again)
                    and final.metrics() == again.metrics()
                ),
                "storm replayed twice diverged (digest or metrics)",
            ),
            (
                recovered or self.overloaded,
                f"{len(final.failed)} queries failed or served answers "
                "diverge from the fault-free golden run",
            ),
            success=self.success(final) if recovered else (
                f"degraded deterministically: "
                f"{len(final.degraded)} degraded, {len(final.shed)} shed, "
                f"{len(final.rejected)} rejected, "
                f"{len(final.failed)} aborted — all structured"
            ),
        )
        # Replays stand in for rollbacks, busy time gained for recovery
        # time. A restarted leg runs fault-free: the crash that killed
        # its predecessor is the cell's one fault.
        return ChaosCellResult(
            self.algorithm, "serve", self.seed, passed, detail,
            faults_injected=1 if self.crash else final.faults_injected,
            gpu_failures=final.faults_injected,
            rounds_rolled_back=final.replays,
            recovery_time_s=max(0.0, final.gpu_busy_s - golden.gpu_busy_s),
            trace_digest=digest,
            error=final.failed[0].error if final.failed else None,
            golden_digest=golden_digest,
            recovered_digest=digest,
            digest_match=digest == golden_digest,
            golden_time_s=golden.makespan_s,
            recovered_time_s=final.makespan_s,
        )


def _engine_row(
    graph, algorithm, label, engine_name, machine, graph_name,
    program_kwargs, **fields,
) -> _EngineRow:
    """An engine row labelled ``label`` whose legs run ``algorithm``;
    certified bit-exact when it restarts, else within the contraction
    band."""
    if engine_name not in ALL_CHAOS_ENGINES:  # only these take fault plans
        raise ConfigurationError(
            f"chaos engine must be one of {ALL_CHAOS_ENGINES}, "
            f"got {engine_name!r}"
        )
    program = make_program(algorithm, graph, **(program_kwargs or {}))
    band = 0.0
    if fields.get("crash") is None and algorithm in CONTRACTION_ALGORITHMS:
        band = equivalence_band(program, graph)
    leg = functools.partial(
        run_cell, algo=algorithm, graph_name=graph_name,
        machine=machine or MachineSpec(), graph=graph,
        program_kwargs=program_kwargs,
    )
    return _EngineRow(
        label, engine_name, leg=leg, graph=graph, program=program,
        band=band, **fields,
    )


def _serve_row(
    graph, algorithm, label, machine, graph_name, seed, knobs, **fields
) -> _ServeRow:
    """A serve row labelled ``label`` whose legs serve the same seeded
    ``algorithm`` trace under the same knobs."""
    # Imported lazily: repro.serve depends on repro.faults.plan, so a
    # module-level import here would be circular.
    from repro.serve.runner import run_serve_cell

    leg = functools.partial(
        run_serve_cell, algorithm, graph_name, seed=seed, machine=machine,
        graph=graph, use_cache=False, **knobs,
    )
    return _ServeRow(label, "serve", seed, leg, **fields)


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
    failures). Vectorized cells take their golden from the scalar
    sibling: the recovered batched run must converge to the scalar
    fixed point — the strongest form of the batch-kernel equivalence
    contract under faults.
    """
    if recovery is None:
        recovery = RecoveryPolicy()
    return _run_row(_engine_row(
        graph, algorithm, algorithm, engine_name, machine, graph_name,
        program_kwargs, seed=plan.seed,
        golden={"engine_name": SCALAR_SIBLING.get(engine_name, engine_name)},
        final={
            "engine_name": engine_name,
            "fault_injector": FaultInjector(plan),
            "recovery": None if disable_recovery else recovery,
        },
    ))


def run_serve_chaos_cell(
    graph,
    algorithm: str = "mixed",
    kill_launch: int = 4,
    seed: int = 0,
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
    ``max_replays=0`` this is the non-vacuity leg: the kill must surface
    as cleanly failed queries and a digest mismatch.
    """
    return _run_row(_serve_row(
        graph, algorithm, f"serve-{algorithm}", machine, graph_name, seed,
        {"num_queries": 24, **serve_knobs},
        final={"kill_launch": kill_launch},
        success=lambda final: (
            f"{len(final.completed)} served answers match golden "
            f"after {final.replays}-query batch replay"
        ),
    ))


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
    return _run_row(_serve_row(
        graph, algorithm, f"serve-storm-{algorithm}", machine, graph_name,
        seed, knobs, final={"fault_plan": plan}, storm=True,
        overloaded=any(knobs.get(name) for name in OVERLOAD_KNOBS),
        success=lambda final: (
            f"recovered identical digests after {final.replays} lane replays"
        ),
    ))


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
    base = recovery if recovery is not None else RecoveryPolicy()
    durable = replace(
        base, run_dir=run_dir,
        durability=base.durability if base.durability != "none" else "durable",
    )
    crash = crash_plan(crash_point, engine_name, crash_round)
    return _run_row(_engine_row(
        graph, algorithm, f"{algorithm}@{crash_point}", engine_name,
        machine, graph_name, program_kwargs, seed=None,
        golden={
            "engine_name": engine_name,
            "recovery": replace(durable, durability="none", run_dir=""),
        },
        crash={
            "engine_name": engine_name,
            "fault_injector": FaultInjector(crash),
            "recovery": durable,
        },
        crash_at=crash_point,
        final={
            "engine_name": engine_name, "recovery": durable, "resume": True,
        },
    ))


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

    journal = os.path.join(run_dir, SERVE_JOURNAL_NAME)
    crash = FaultPlan(
        compute_faults={int(crash_launch): ComputeFault(crash=True)}
    )
    return _run_row(_serve_row(
        graph, algorithm, f"serve-crash-{algorithm}", machine, graph_name,
        seed, {"num_queries": 24, **serve_knobs},
        crash={"fault_plan": crash, "journal_path": journal},
        crash_at=f"launch {crash_launch}",
        final={"journal_path": journal},
        success=lambda final: (
            f"restart replayed {len(ServeJournal(journal).load())} "
            "journaled batches and re-served the tail bit-identical to "
            "golden"
        ),
    ))


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


def _grid(cell, axes, serve) -> List[ChaosCellResult]:
    """The sweep loop: ``cell(*point)`` for every point of the product
    of ``axes``, in order, then ``serve()`` unless it is falsy."""
    results = [cell(*point) for point in itertools.product(*axes)]
    return results + [serve()] if serve else results


def _in_temp_dir(cell, *args, **kwargs) -> ChaosCellResult:
    """``cell`` with a fresh temporary ``run_dir``, removed afterwards."""
    with tempfile.TemporaryDirectory(prefix="repro-crash-") as run_dir:
        return cell(*args, run_dir=run_dir, **kwargs)


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
    return _grid(
        lambda algorithm, engine_name, crash_point: _in_temp_dir(
            run_crash_restart_cell, graph, algorithm,
            crash_point=crash_point, engine_name=engine_name,
            machine=machine, recovery=recovery, graph_name=graph_name,
        ),
        (algorithms, engine_names, crash_points),
        include_serve and functools.partial(
            _in_temp_dir, run_serve_crash_restart_cell, graph,
            crash_launch=serve_crash_launch, machine=machine,
            graph_name=graph_name,
        ),
    )


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
    ``disable_recovery`` reaches the serve cell as ``max_replays=0``.
    """
    generate = FaultPlan.generate_storm if storm else FaultPlan.generate
    num_gpus = (machine or MachineSpec()).num_gpus
    serve_cell, serve_options = (
        (run_serve_storm_cell, dict(serve_storm_options or {})) if storm
        else (run_serve_chaos_cell, {"kill_launch": serve_kill_launch})
    )
    if disable_recovery:
        serve_options.setdefault("max_replays", 0)
    results: List[ChaosCellResult] = []
    for seed in seeds:
        plan = generate(seed, num_gpus, **dict(plan_options or {}))
        results += _grid(
            lambda algorithm, engine_name: run_chaos_cell(
                graph, algorithm, plan, engine_name=engine_name,
                machine=machine, recovery=recovery, graph_name=graph_name,
                disable_recovery=disable_recovery,
            ),
            (algorithms, engine_names),
            include_serve and functools.partial(
                serve_cell, graph, "mixed", seed=seed, machine=machine,
                graph_name=graph_name, **serve_options,
            ),
        )
    return results
