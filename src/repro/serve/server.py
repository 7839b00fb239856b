"""The multi-tenant query server: admission, fairness, dispatch.

:class:`QueryServer` consumes a deterministic arrival trace
(:func:`repro.serve.query.generate_trace` — an open-loop ``Query``
timeline or a closed-loop :class:`~repro.serve.query.ClosedLoopTrace`)
on a **virtual clock** (discrete-event loop — no real threads, so the
same trace + seed always produces byte-identical reports):

- arrivals enqueue queries into per-(tenant, algorithm) FIFO backlogs;
  with ``max_queue`` set, the backlog is bounded and overflow is
  resolved by **deterministic load shedding**: the victim comes from
  the tenant with the largest backlog (tenant-fair) and is that
  tenant's *newest* query (oldest-shed-last), so a flooding tenant
  sheds its own flood while light tenants' queries survive.
- **admission** fires on every arrival/completion: oldest-first, it
  moves backlogged queries into the bounded *admitted pool* — at most
  ``max_concurrent`` queries admitted-or-executing overall and
  ``tenant_quota`` per tenant. A query whose deadline has already
  passed at admission time is **rejected** (strictly after — a query
  examined exactly at its deadline is still admitted; see
  :meth:`~repro.serve.query.Query.deadline_at` for the boundary rule).
- **batch formation** happens only when the modeled GPU is idle (one
  batch executes at a time, FIFO): the oldest admitted query fixes the
  batch's algorithm, and the batch fills **round-robin across
  tenants** — one query per tenant per pass — up to ``query_lanes``
  lanes.
- dispatch runs the batch through one
  :class:`~repro.serve.solver.MultiSourceSolver` on the shared
  :class:`~repro.serve.context.ServingContext`. In **brownout** mode
  the solve gets a time budget derived from the batch's tightest
  deadline; lanes that do not converge within it return partially-
  converged **degraded** answers carrying a certified bound
  (:data:`~repro.serve.solver.RESIDUAL_BOUND_KINDS`).

Deadline policies: ``"reject"`` refuses hopeless queries at admission
and returns late answers flagged ``deadline_missed``; ``"abort"``
additionally discards answers that complete after their deadline
(client gone away) with a structured
:class:`~repro.errors.DeadlineExceededError`.

Every dispatched batch has one outcome, a batch record plus one
:class:`~repro.serve.query.QueryResult` a lane, from one of two
sources: the solver (:meth:`QueryServer._solve_batch`) or, on a
restart, the batch's verified journal record. One commit applies
either: it frees the GPU at the batch's completion, adds the record's
service time, launches, work, replays and faults to the totals, moves
the serve-wide launch counter to the batch's end, journals a solved
batch and schedules the completion event.

Faults: a :class:`~repro.faults.plan.FaultPlan`'s compute faults are
keyed by the serve-wide launch counter, which restarts at 0 with every
:meth:`QueryServer.serve` call; a journaled batch's record carries its
fault count and end-of-batch launch index, so a resumed serve reports
the faults of the batches it reads back and numbers the re-served
tail's launches as the uninterrupted serve did. A scheduled GPU kill
aborts the in-flight batch mid-solve; the server charges the wasted
partial service time, waits out an exponential backoff
(``replay_backoff_s`` × ``backoff_multiplier``^attempt), and re-runs
the batch up to ``max_replays`` times. ``max_replays=0`` fails the
killed batch's queries at once (status ``"failed"``); a storm that
kills every attempt exhausts the budget and aborts the batch (status
``"aborted"``). Either way the queries carry a structured
:class:`~repro.errors.QueryAbortedError` — never a silent wrong answer,
never a hang.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    CheckpointStoreError,
    ConfigurationError,
    DeadlineExceededError,
    GPULostError,
    InjectedCrashError,
    QueryAbortedError,
    QueryShedError,
)
from repro.faults.plan import FaultPlan
from repro.faults.store import ServeJournal
from repro.knobs import check_fields, knob
from repro.serve.context import ServingContext
from repro.serve.query import (
    ClosedLoopTrace, Query, QueryResult, make_query_program,
)
from repro.serve.solver import MultiSourceSolver, residual_bound_kind

#: Valid deadline policies (see module docstring).
DEADLINE_POLICIES: Tuple[str, ...] = ("reject", "abort")

#: The per-query fields of a journaled batch record, written and read
#: back under the :class:`~repro.serve.query.QueryResult` field names.
JOURNAL_FIELDS: Tuple[str, ...] = (
    "status", "digest", "rounds", "replayed", "error", "attempts",
    "bound_kind", "residual_bound", "deadline_missed",
)


@dataclass(frozen=True)
class ServeConfig:
    """Admission/scheduling knobs of the query server.

    Each field is declared as a :func:`~repro.knobs.knob`: the CLI flag,
    the sweep-config name and unit, and the range ``__post_init__``
    enforces are all read off that one declaration.
    """

    query_lanes: int = knob(
        int, 8, minimum=1, sweep=True, flag="--lanes",
        help="max same-algorithm queries batched into one multi-source "
        "solve; 1 = sequential dispatch (default: 8)",
    )
    #: Max queries admitted-or-executing (bounds GPU-resident state).
    max_concurrent: int = knob(
        int, 32, minimum=1, sweep=True, flag="--max-concurrent",
        help="admission bound on in-flight queries (default: 32)",
    )
    tenant_quota: int = knob(
        int, 8, minimum=1, sweep=True, flag="--tenant-quota",
        help="per-tenant in-flight fairness quota (default: 8)",
    )
    #: Round budget per solve.
    max_rounds: int = knob(int, 100000, minimum=1)
    #: Default relative deadline applied to queries without their own.
    deadline_s: Optional[float] = knob(
        float, None, name="deadline_ms", scale=1e-3, positive=True,
        sweep=True, flag="--deadline-ms",
        help="per-query relative deadline in milliseconds; late answers "
        "count as deadline misses (default: no deadline)",
    )
    deadline_policy: str = knob(
        str, "reject", choices=DEADLINE_POLICIES, sweep=True,
        flag="--deadline-policy",
        help="'reject' refuses admission once a deadline is hopeless; "
        "'abort' additionally drops in-flight answers that finished "
        "late (default: reject)",
    )
    max_queue: Optional[int] = knob(
        int, None, minimum=1, sweep=True,
        flag="--max-queue",
        help="bound on waiting queries; excess is shed deterministically "
        "from the largest-backlog tenant, newest first (default: "
        "unbounded)",
    )
    brownout: bool = knob(
        bool, False, sweep=True, flag="--brownout", flag_sets=True,
        help="under deadline pressure return partially-converged answers "
        "with certified residual bounds instead of missing deadlines",
    )
    #: 0 disables replay: a killed batch's queries fail cleanly. The
    #: first attempt is not a replay.
    max_replays: int = knob(
        int, 1, minimum=0, sweep=True, flag="--max-replays",
        help="replay attempts per fault-killed batch before its queries "
        "abort (default: 1)",
    )
    replay_backoff_s: float = knob(
        float, 0.0, name="replay_backoff_us", scale=1e-6, minimum=0,
        sweep=True, flag="--replay-backoff-us",
        help="base backoff before a batch replay, in microseconds; "
        "doubles per attempt (default: 0)",
    )
    #: Exponential backoff growth per additional replay.
    backoff_multiplier: float = knob(float, 2.0, minimum=1)

    def __post_init__(self) -> None:
        check_fields(self)


#: The knobs (external names) whose being set makes a cell
#: overload-protected: it may reject, shed or degrade queries instead of
#: answering every one in full.
OVERLOAD_KNOBS = ("deadline_ms", "max_queue", "brownout")


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-int(q * len(sorted_values) * 100) // 100))
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


@dataclass
class ServeReport:
    """Everything one serve run produced, aggregates included."""

    results: Tuple[QueryResult, ...]
    query_lanes: int
    max_concurrent: int
    tenant_quota: int
    batches: int
    launches: int
    edge_lane_work: int
    peak_concurrency: int
    gpu_busy_s: float
    makespan_s: float
    faults_injected: int
    replays: int
    per_tenant: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def completed(self) -> Tuple[QueryResult, ...]:
        return tuple(r for r in self.results if r.status == "ok")

    @property
    def degraded(self) -> Tuple[QueryResult, ...]:
        return tuple(r for r in self.results if r.status == "degraded")

    @property
    def answered(self) -> Tuple[QueryResult, ...]:
        """Results that carry an answer (fully converged or certified)."""
        return tuple(
            r for r in self.results if r.status in ("ok", "degraded")
        )

    @property
    def failed(self) -> Tuple[QueryResult, ...]:
        return tuple(
            r for r in self.results if r.status in ("failed", "aborted")
        )

    @property
    def shed(self) -> Tuple[QueryResult, ...]:
        return tuple(r for r in self.results if r.status == "shed")

    @property
    def rejected(self) -> Tuple[QueryResult, ...]:
        return tuple(r for r in self.results if r.status == "rejected")

    @property
    def goodput(self) -> Tuple[QueryResult, ...]:
        """Answered on time: the numerator of the goodput ratio."""
        return tuple(
            r for r in self.answered if not r.deadline_missed
        )

    def latency_percentile(self, q: float) -> float:
        lats = sorted(r.latency_s for r in self.answered)
        return _percentile(lats, q)

    @property
    def queries_per_s(self) -> float:
        done = len(self.answered)
        if done == 0 or self.makespan_s <= 0:
            return 0.0
        return done / self.makespan_s

    @property
    def goodput_per_s(self) -> float:
        good = len(self.goodput)
        if good == 0 or self.makespan_s <= 0:
            return 0.0
        return good / self.makespan_s

    def metrics(self) -> Dict[str, float]:
        """Flat metric dict for the sweep harness / BENCH artifacts."""
        answered = self.answered
        lats = sorted(r.latency_s for r in answered)
        mean = sum(lats) / len(lats) if lats else 0.0
        bounds = [
            r.residual_bound
            for r in self.degraded
            if r.residual_bound is not None
        ]
        return {
            "queries_total": float(len(self.results)),
            "queries_completed": float(len(self.completed)),
            "queries_degraded": float(len(self.degraded)),
            "queries_failed": float(len(self.failed)),
            "queries_shed": float(len(self.shed)),
            "queries_rejected": float(len(self.rejected)),
            "queries_replayed": float(
                sum(1 for r in self.results if r.replayed)
            ),
            "deadline_misses": float(
                sum(1 for r in self.results if r.deadline_missed)
            ),
            "goodput_queries": float(len(self.goodput)),
            "goodput_per_s": self.goodput_per_s,
            "residual_bound_max": max(bounds) if bounds else 0.0,
            "queries_per_s": self.queries_per_s,
            "latency_p50_s": _percentile(lats, 0.50),
            "latency_p99_s": _percentile(lats, 0.99),
            "latency_mean_s": mean,
            "latency_max_s": lats[-1] if lats else 0.0,
            "makespan_s": self.makespan_s,
            "gpu_busy_s": self.gpu_busy_s,
            "batches": float(self.batches),
            "launches": float(self.launches),
            "edge_lane_work": float(self.edge_lane_work),
            "peak_concurrency": float(self.peak_concurrency),
            "faults_injected": float(self.faults_injected),
            "replays": float(self.replays),
        }


class QueryServer:
    """Deterministic discrete-event admission loop over one context."""

    def __init__(
        self,
        context: ServingContext,
        config: Optional[ServeConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        journal_path: Optional[str] = None,
    ) -> None:
        self.context = context
        self.config = config or ServeConfig()
        self._compute_faults = (
            dict(fault_plan.compute_faults) if fault_plan else {}
        )
        #: Serve-wide launch index; restarts at 0 with every
        #: :meth:`serve` call and resumes past every journaled batch.
        self._launch_counter = 0
        #: Durable completion journal (see
        #: :class:`~repro.faults.store.ServeJournal`): every completed
        #: batch is appended; on restart, journaled batches replay their
        #: recorded outcome instead of re-solving, so the admitted-but-
        #: unanswered tail resumes deterministically.
        self._journal = (
            ServeJournal(journal_path) if journal_path else None
        )

    # ------------------------------------------------------------------
    # fault injection (serve-wide launch counter)
    # ------------------------------------------------------------------
    def _fault_hook(self, _solver_launch: int) -> None:
        index = self._launch_counter
        self._launch_counter += 1
        fault = self._compute_faults.get(index)
        if fault is None:
            return
        if fault.crash:
            raise InjectedCrashError(
                f"whole-job crash at serve launch {index}",
                crash_point="serve-launch",
                round_index=index,
            )
        if fault.kill_gpu is not None:
            raise GPULostError(
                f"GPU {fault.kill_gpu} lost at serve launch {index}",
                gpu_id=fault.kill_gpu,
            )

    # ------------------------------------------------------------------
    # one batch outcome: solved here, or read back from the journal
    # ------------------------------------------------------------------
    def _l1_bound(self, program, residual: float) -> float:
        """‖x_ref − x‖₁ ≤ (‖r_meas‖₁ + 2·n·tol)/(1−d): r_meas misses up
        to tol per vertex (the write gate discards sub-tolerance drift)
        and the exact reference itself converges only to tol."""
        n = self.context.graph.num_vertices
        return (residual + 2.0 * n * float(program.tolerance)) / (
            1.0 - float(program.damping)
        )

    def _solve_batch(
        self, batch: List[Query], start: float, batch_id: int, strict: bool
    ) -> Tuple[Dict, Tuple[QueryResult, ...]]:
        """Solve ``batch`` from ``start``, replaying it after GPU kills
        while the budget lasts; the batch record and one result a lane."""
        cfg = self.config
        programs = [make_query_program(q) for q in batch]
        solver = MultiSourceSolver(
            self.context, programs, max_rounds=cfg.max_rounds,
            fault_hook=self._fault_hook,
        )
        deadlines = [q.deadline_at(cfg.deadline_s) for q in batch]
        firm = [d for d in deadlines if d is not None]
        budget: Optional[float] = None
        if cfg.brownout and firm:
            # The batch's tightest deadline sets the compute budget; a
            # stale batch (already past deadline) still gets its
            # mandatory first round.
            budget = max(min(firm) - start, 0.0)
        wasted = 0.0
        backoff_total = 0.0
        attempts = 0
        result = None
        error: Optional[QueryAbortedError] = None
        while result is None and error is None:
            attempts += 1
            try:
                result = solver.solve(time_budget_s=budget)
            except GPULostError as exc:
                wasted += float(
                    getattr(exc, "modeled_seconds_completed", 0.0)
                )
                if attempts > cfg.max_replays:
                    error = QueryAbortedError(
                        "batch killed mid-solve, replay disabled"
                        if cfg.max_replays == 0
                        else f"batch replay budget exhausted after "
                        f"{attempts} attempts",
                        query_ids=[q.query_id for q in batch],
                        tenants=[q.tenant for q in batch],
                        batch_id=batch_id,
                        launch_index=getattr(
                            exc, "launches_completed", None
                        ),
                    )
                else:
                    backoff_total += cfg.replay_backoff_s * (
                        cfg.backoff_multiplier ** (attempts - 1)
                    )
        service = wasted
        if result is not None:
            service += result.modeled_seconds
        # Backoff is wall time the GPU sits idle between attempts: it
        # delays completion but is not busy time.
        completion = start + service + backoff_total
        replayed = result is not None and attempts > 1
        lane_results = []
        for lane, query in enumerate(batch):
            deadline = deadlines[lane]
            missed = deadline is not None and completion > deadline
            digest = kind = bound = states = None
            rounds = 0 if result is None else result.lane_rounds[lane]
            if result is None:
                status = "failed" if cfg.max_replays == 0 else "aborted"
                message = str(error)
            elif missed and cfg.deadline_policy == "abort":
                status = "aborted"
                message = str(DeadlineExceededError(
                    "answer completed after deadline, discarded",
                    query_id=query.query_id,
                    tenant=query.tenant,
                    deadline_s=deadline,
                    detected_s=completion,
                ))
            else:
                message = None
                digest = result.digests[lane]
                status = (
                    "ok" if result.lane_converged[lane] else "degraded"
                )
            if status == "degraded":
                kind = residual_bound_kind(query.algorithm)
                if kind == "l1":
                    bound = self._l1_bound(
                        programs[lane], result.lane_residuals[lane]
                    )
                states = result.states[lane].copy()
            lane_results.append(QueryResult(
                query=query, status=status, digest=digest, start_s=start,
                completion_s=completion, batch_id=batch_id,
                lanes=len(batch), rounds=rounds, replayed=replayed,
                error=message, attempts=attempts, bound_kind=kind,
                residual_bound=bound, deadline_missed=missed, states=states,
            ))
        if error is not None and strict:
            raise error
        record = {
            "batch_id": batch_id, "query_ids": [q.query_id for q in batch],
            "start": start, "completion": completion, "service": service,
            "launches": 0 if result is None else result.launches,
            "edge_lane_work": 0 if result is None else result.edge_lane_work,
            "replays": len(batch) * (attempts - 1) if replayed else 0,
            # Every attempt but a solved last one was killed.
            "faults": attempts - (result is not None),
            "launch_index": self._launch_counter,
        }
        return record, tuple(lane_results)

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def serve(
        self,
        trace: Union[Sequence[Query], ClosedLoopTrace],
        strict: bool = False,
    ) -> ServeReport:
        """Run the trace to completion and return the report.

        ``strict`` raises the first failed batch's
        :class:`~repro.errors.QueryAbortedError` instead of returning a
        report containing failed queries (shed/rejected/degraded
        outcomes are policy, not failures — strict mode reports them).
        """
        cfg = self.config
        self._launch_counter = 0
        closed = isinstance(trace, ClosedLoopTrace)
        if closed:
            sessions = trace.sessions
            all_queries = [t for session in sessions for t in session]
        else:
            all_queries = sorted(
                trace, key=lambda q: (q.arrival_s, q.query_id)
            )
        seen_ids = set()
        for query in all_queries:
            if query.query_id in seen_ids:
                raise ConfigurationError(
                    f"duplicate query_id {query.query_id} in trace"
                )
            seen_ids.add(query.query_id)
        tenants = sorted({q.tenant for q in all_queries})
        tenant_index = {t: i for i, t in enumerate(tenants)}

        # per-(tenant, algorithm) FIFO queues: the arrival backlog
        # (bounded by max_queue when set), then the bounded admitted
        # pool batches are drawn from.
        backlog: Dict[str, Dict[str, Deque[Query]]] = {t: {} for t in tenants}
        admitted: Dict[str, Dict[str, Deque[Query]]] = {t: {} for t in tenants}
        waiting = 0
        num_admitted = 0
        in_flight = 0  # admitted + executing
        tenant_inflight: Dict[str, int] = {t: 0 for t in tenants}
        rr = 0
        peak_concurrency = 0
        # What every committed batch outcome advances: the GPU's free
        # instant, the batch count and the record's totals.
        gpu_free = 0.0
        batch_id = 0
        totals = {
            "service": 0.0, "launches": 0, "edge_lane_work": 0,
            "replays": 0, "faults": 0,
        }
        # Journaled outcomes from a previous (crashed) run of this
        # trace: batch_id -> verified record. The admission loop is
        # deterministic, so batch N re-forms with the same queries and
        # short-circuits to the recorded outcome.
        journal_replay = (
            self._journal.load() if self._journal is not None else {}
        )
        results: List[QueryResult] = []

        # event heap: (time, priority, seq, kind, payload); completions
        # (priority 0) beat simultaneous arrivals so capacity frees first.
        events: List = []
        seq = 0

        # closed-loop session bookkeeping: each session holds one query
        # in flight; the next template arrives think_s after the
        # previous query's terminal event.
        session_next: List[int] = [0] * (len(sessions) if closed else 0)
        query_session: Dict[int, int] = {}

        def push_arrival(query: Query) -> None:
            nonlocal seq
            heapq.heappush(
                events, (query.arrival_s, 1, seq, "arrival", query)
            )
            seq += 1

        def schedule_session(s_idx: int, now: float) -> None:
            pos = session_next[s_idx]
            if pos >= len(sessions[s_idx]):
                return
            session_next[s_idx] = pos + 1
            template = sessions[s_idx][pos]
            query = template.materialize(now + template.think_s)
            query_session[query.query_id] = s_idx
            push_arrival(query)

        if closed:
            for s_idx in range(len(sessions)):
                schedule_session(s_idx, 0.0)
        else:
            for query in all_queries:
                push_arrival(query)

        def record_result(qr: QueryResult) -> None:
            """Every terminal outcome funnels through here, so the
            closed-loop think-time clock ticks on *any* terminal state,
            answers and sheds alike."""
            results.append(qr)
            if closed:
                s_idx = query_session.get(qr.query.query_id)
                if s_idx is not None:
                    schedule_session(s_idx, qr.completion_s)

        def refuse(query: Query, status: str, err, now: float) -> None:
            """Shed or reject ``query`` at ``now``: it never runs."""
            record_result(QueryResult(
                query=query, status=status, digest=None, start_s=now,
                completion_s=now, batch_id=-1, lanes=0, rounds=0,
                error=str(err), deadline_missed=status == "rejected",
            ))

        def end_queue(pool, pool_tenants, newest=False):
            """The queue of ``pool_tenants`` whose head is globally
            oldest (whose tail is newest); None if all are empty."""
            ends = [
                queue for t in pool_tenants
                for queue in pool[t].values() if queue
            ]
            if not ends:
                return None
            if newest:
                return max(
                    ends, key=lambda q: (q[-1].arrival_s, q[-1].query_id)
                )
            return min(ends, key=lambda q: (q[0].arrival_s, q[0].query_id))

        def shed_excess(now: float) -> None:
            # Deterministic tenant-fair shedding: victim tenant is the
            # one with the largest backlog; victim query is the newest
            # of the tied tenants' backlogs (oldest-shed-last). The
            # just-arrived query is a candidate like any other.
            nonlocal waiting
            while cfg.max_queue is not None and waiting > cfg.max_queue:
                counts = {
                    t: sum(len(q) for q in backlog[t].values())
                    for t in tenants
                }
                top = max(counts.values())
                tied = [t for t in tenants if counts[t] == top]
                query = end_queue(backlog, tied, newest=True).pop()
                waiting -= 1
                refuse(query, "shed", QueryShedError(
                    "queue full, query shed",
                    query_id=query.query_id,
                    tenant=query.tenant,
                    queue_depth=waiting + 1,
                ), now)

        def commit(record: Dict, batch_results, solved: bool) -> None:
            """Apply one batch outcome, solved or journaled."""
            nonlocal gpu_free, batch_id, seq
            gpu_free = record["completion"]
            for key in totals:
                totals[key] += record[key]
            # The next batch's launches are numbered on from this one's,
            # solved or not, so a resumed serve meets the fault plan at
            # the launches the uninterrupted one did.
            self._launch_counter = record["launch_index"]
            if solved and self._journal is not None:
                self._journal.append({**record, "results": [
                    {"query_id": r.query.query_id,
                     **{f: getattr(r, f) for f in JOURNAL_FIELDS}}
                    for r in batch_results
                ]})
            heapq.heappush(
                events, (gpu_free, 0, seq, "completion", batch_results)
            )
            seq += 1
            batch_id += 1

        def admit(now: float) -> None:
            # Move backlogged queries into the admitted pool, globally
            # oldest first, honoring max_concurrent and tenant_quota.
            # Queries whose deadline already passed (strictly) are
            # rejected here instead of occupying a lane.
            nonlocal waiting, num_admitted, in_flight, peak_concurrency
            while waiting > 0 and in_flight < cfg.max_concurrent:
                queue = end_queue(backlog, [
                    t for t in tenants
                    if tenant_inflight[t] < cfg.tenant_quota
                ])
                if queue is None:
                    return
                query = queue.popleft()
                tenant = query.tenant
                waiting -= 1
                deadline = query.deadline_at(cfg.deadline_s)
                if deadline is not None and now > deadline:
                    refuse(query, "rejected", DeadlineExceededError(
                        "deadline passed before admission",
                        query_id=query.query_id,
                        tenant=tenant,
                        deadline_s=deadline,
                        detected_s=now,
                    ), now)
                    continue
                admitted[tenant].setdefault(
                    query.algorithm, deque()
                ).append(query)
                num_admitted += 1
                in_flight += 1
                tenant_inflight[tenant] += 1
                peak_concurrency = max(peak_concurrency, in_flight)

        def form_batch(now: float) -> None:
            # Only when the GPU is idle: oldest admitted query fixes the
            # algorithm, round-robin tenant fill up to query_lanes.
            nonlocal num_admitted, rr
            if num_admitted == 0 or gpu_free > now:
                return
            algo = end_queue(admitted, tenants)[0].algorithm
            batch: List[Query] = []
            progress = True
            while len(batch) < cfg.query_lanes and progress:
                progress = False
                for offset in range(len(tenants)):
                    if len(batch) >= cfg.query_lanes:
                        break
                    tenant = tenants[(rr + offset) % len(tenants)]
                    algo_queue = admitted[tenant].get(algo)
                    if not algo_queue:
                        continue
                    batch.append(algo_queue.popleft())
                    progress = True
            num_admitted -= len(batch)
            rr = (tenant_index[batch[0].tenant] + 1) % len(tenants)
            record = journal_replay.get(batch_id)
            if record is None:
                commit(*self._solve_batch(batch, now, batch_id, strict),
                       solved=True)
            else:
                commit(*_journaled_outcome(record, batch), solved=False)

        while events:
            now, _prio, _seq, kind, payload = heapq.heappop(events)
            if kind == "arrival":
                query = payload
                backlog[query.tenant].setdefault(
                    query.algorithm, deque()
                ).append(query)
                waiting += 1
                shed_excess(now)
            else:
                batch_results = payload
                for qr in batch_results:
                    record_result(qr)
                    tenant_inflight[qr.query.tenant] -= 1
                in_flight -= len(batch_results)
            admit(now)
            form_batch(now)

        results.sort(key=lambda r: r.query.query_id)
        makespan = max((r.completion_s for r in results), default=0.0)
        per_tenant: Dict[str, Dict[str, float]] = {}
        for tenant in tenants:
            rows = [r for r in results if r.query.tenant == tenant]
            count = Counter(r.status for r in rows)
            done = [r for r in rows if r.status in ("ok", "degraded")]
            lats = sorted(r.latency_s for r in done)
            per_tenant[tenant] = {
                "queries": float(len(rows)),
                "completed": float(count["ok"]),
                "degraded": float(count["degraded"]),
                "shed": float(count["shed"]),
                "goodput": float(
                    sum(1 for r in done if not r.deadline_missed)
                ),
                "latency_p50_s": _percentile(lats, 0.50),
                "latency_p99_s": _percentile(lats, 0.99),
                "latency_max_s": lats[-1] if lats else 0.0,
            }
        return ServeReport(
            results=tuple(results),
            query_lanes=cfg.query_lanes,
            max_concurrent=cfg.max_concurrent,
            tenant_quota=cfg.tenant_quota,
            batches=batch_id,
            launches=totals["launches"],
            edge_lane_work=totals["edge_lane_work"],
            peak_concurrency=peak_concurrency,
            gpu_busy_s=totals["service"],
            makespan_s=makespan,
            faults_injected=totals["faults"],
            replays=totals["replays"],
            per_tenant=per_tenant,
        )


def _journaled_outcome(
    record: Dict, batch: List[Query]
) -> Tuple[Dict, Tuple[QueryResult, ...]]:
    """A verified journal record as the outcome of the re-formed
    ``batch``. Degraded states are not journaled: the recorded digest
    still certifies the answer, but the vector itself must be
    re-derived if needed."""
    ids = [q.query_id for q in batch]
    if list(record["query_ids"]) != ids:
        raise CheckpointStoreError(
            "serve journal batch does not match the re-formed batch "
            f"(journal {record['query_ids']} vs {ids})",
            checkpoint=record["batch_id"],
            kind="journal-mismatch",
        )
    return record, tuple(
        QueryResult(
            query=query,
            start_s=float(record["start"]),
            completion_s=record["completion"],
            batch_id=record["batch_id"],
            lanes=len(batch),
            **{f: lane[f] for f in JOURNAL_FIELDS},
        )
        for query, lane in zip(batch, record["results"])
    )
