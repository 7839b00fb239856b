"""The DiGraph engine: path-based asynchronous execution on multiple GPUs.

Execution follows Section 3 end to end:

1. **Preprocess** (CPU, ``n_workers`` shards): Algorithm-1 path
   decomposition, head-to-tail merging, the path dependency DAG with
   layers, partition formation, the Fig. 4 storage arrays, and the replica
   table. Modeled CPU time is charged per the paper's one-traversal
   argument.
2. **Dispatch**: partitions are grouped by mutual dependency and layered;
   each round runs the *frontier groups* (active groups whose predecessor
   groups have all converged), plus advance-execution work when GPUs would
   idle. Partitions transfer host->GPU in batches, prefetched on streams;
   idle GPUs steal runnable partitions.
3. **Process**: on each SMX, paths are ordered by ``Pri(p)`` and packed
   onto threads with balanced edge counts; one thread walks one path
   sequentially, so a vertex's new state reaches its in-path successors
   within the same round (Observation 1). Gather always reads the current
   master states, so the result is a Gauss-Seidel-style relaxation whose
   fixed point matches every other engine.
4. **Synchronize**: changed vertices push replica updates, batched per
   destination partition; proxy vertices absorb same-SMX write contention.

Variant flags reproduce the paper's ablations: ``use_path_execution=False``
is DiGraph-t (traditional per-vertex async on the same partitions, no
dependency ordering), ``use_priority_scheduling=False`` is DiGraph-w.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.graph.digraph import DiGraphCSR
from repro.gpu.config import MachineSpec
from repro.gpu.machine import Machine
from repro.model.gas import VertexProgram
from repro.model.rounds import (
    checkpoint_manager,
    drive_rounds,
    finish_run,
)
from repro.model.state import VertexStates
from repro.bench.results import ExecutionResult, RoundRecord
from repro.core.dependency import DependencyDAG, build_dependency_dag
from repro.core.dispatch import (
    Dispatcher,
    PartitionDependencies,
    lift_to_partitions,
)
from repro.core.partitioning import (
    D_MAX,
    decompose_into_paths,
    modeled_preprocess_seconds,
)
from repro.core.paths import PathSet
from repro.core.replicas import ReplicaTable
from repro.core.scheduling import PathScheduler, pack_ordered
from repro.core.storage import (
    BYTES_PER_MESSAGE,
    PathStorage,
    build_partitions,
)
from repro.core.tables import ExecutionTables
from repro.kernels.steps import dependents_table, resolve_step
from repro.baselines.common import resolve_partition_target

#: Bound on SMX-local path iterations within one partition pass.
_MAX_LOCAL_ITERATIONS = 1000


@dataclass(frozen=True)
class DiGraphConfig:
    """Tunables of the DiGraph engine (paper defaults)."""

    d_max: int = D_MAX
    n_workers: int = 1
    #: ``None`` sizes partitions adaptively (~64 per graph).
    target_edges_per_partition: Optional[int] = None
    hot_fraction: float = 0.1
    proxy_in_degree_threshold: int = 8
    merge_short_paths: bool = True
    degree_greedy: bool = True
    #: False -> DiGraph-t: traditional async processing, no path walks,
    #: no dependency-ordered dispatch.
    use_path_execution: bool = True
    #: False -> DiGraph-w: round-robin path order instead of Pri(p).
    use_priority_scheduling: bool = True
    prefetch: bool = True
    max_rounds: int = 100000
    #: Extra runnable partitions admitted per round beyond the frontier
    #: when GPUs would otherwise idle (advance execution), as a multiple
    #: of the GPU count. Off by default: on scaled-down workloads the
    #: stale-input updates it admits outweigh the utilization gain (the
    #: ablation bench sweeps it).
    advance_factor: int = 0
    #: Run the :mod:`repro.verify` invariant checkers after preprocessing
    #: (structural: paths, DAG, replicas, storage) and after execution
    #: (conservation + fixed point), raising
    #: :class:`~repro.errors.VerificationError` on any violation.
    verify_invariants: bool = False

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        if self.advance_factor < 0:
            raise ConfigurationError("advance_factor must be >= 0")


@dataclass
class Preprocessed:
    """Everything the CPU produces before GPU execution starts."""

    path_set: PathSet
    dag: DependencyDAG
    storage: PathStorage
    replicas: ReplicaTable
    modeled_seconds: float
    wall_seconds: float

    @cached_property
    def partition_dependencies(self) -> PartitionDependencies:
        """``storage`` and ``dag`` lifted to partitions, on first use.

        Every run over this preprocess dispatches over the same lifted
        graph, so it is built once and kept on the object it derives
        from — a new ``Preprocessed`` (a streaming repair, a rebuild)
        starts without one.
        """
        return lift_to_partitions(self.storage, self.dag)

    @cached_property
    def execution_tables(self) -> ExecutionTables:
        """The flat tables a partition pass indexes, on first use.

        Kept on the object they derive from for the same reason as
        :attr:`partition_dependencies`: every run over this preprocess
        reads the same tables, and a new ``Preprocessed`` builds its own.
        Building them pins ``replicas``' layer-aware owners.
        """
        return ExecutionTables.build(
            self.path_set,
            self.dag,
            self.storage,
            self.replicas,
            self.partition_dependencies,
        )


class DiGraphEngine:
    """Path-based iterative directed graph processing (the paper's system)."""

    name = "digraph"

    def __init__(
        self,
        machine_spec: Optional[MachineSpec] = None,
        config: Optional[DiGraphConfig] = None,
    ) -> None:
        self.spec = machine_spec or MachineSpec()
        self.config = config or DiGraphConfig()

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------
    def preprocess(self, graph: DiGraphCSR) -> Preprocessed:
        """CPU preprocessing: paths, DAG, partitions, storage, replicas."""
        cfg = self.config
        started = time.perf_counter()
        path_set = decompose_into_paths(
            graph,
            d_max=cfg.d_max,
            n_workers=cfg.n_workers,
            merge_short_paths=cfg.merge_short_paths,
            hot_fraction=cfg.hot_fraction,
            degree_greedy=cfg.degree_greedy,
        )
        dag = build_dependency_dag(path_set)
        modeled = modeled_preprocess_seconds(
            graph, cfg.n_workers, dependency_vertices=dag.num_paths
        )
        pre = self.assemble(
            graph, path_set, dag, modeled, verify=cfg.verify_invariants
        )
        pre.wall_seconds = time.perf_counter() - started
        return pre

    def assemble(
        self,
        graph: DiGraphCSR,
        path_set: PathSet,
        dag: DependencyDAG,
        modeled_seconds: float,
        verify: bool = False,
    ) -> Preprocessed:
        """``Preprocessed`` around a decomposition and its dependency DAG.

        Partitions, storage arrays and the replica table are derived
        views of the path set: built here for a fresh decomposition
        (:meth:`preprocess`) and for a repaired one
        (:class:`~repro.streaming.session.StreamingSession`) alike.
        ``verify`` checks the structural invariants of the result.
        """
        cfg = self.config
        started = time.perf_counter()
        target = resolve_partition_target(
            graph, cfg.target_edges_per_partition
        )
        partitions = build_partitions(path_set, dag, target)
        storage = PathStorage(path_set, partitions)
        replicas = ReplicaTable(
            path_set,
            storage,
            proxy_in_degree_threshold=cfg.proxy_in_degree_threshold,
            proxy_capacity=self.spec.gpu.shared_memory_per_smx_bytes // 16,
        )
        pre = Preprocessed(
            path_set=path_set,
            dag=dag,
            storage=storage,
            replicas=replicas,
            modeled_seconds=modeled_seconds,
            wall_seconds=time.perf_counter() - started,
        )
        if verify:
            from repro.verify.structural import verify_preprocessed

            verify_preprocessed(pre).raise_if_failed()
        return pre

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        graph: DiGraphCSR,
        program: VertexProgram,
        preprocessed: Optional[Preprocessed] = None,
        graph_name: str = "graph",
        strict_convergence: bool = True,
        fault_injector=None,
        recovery=None,
        initial_values=None,
        initial_active=None,
        resume: bool = False,
    ) -> ExecutionResult:
        """Run ``program`` to convergence and return the result record.

        ``fault_injector`` (a :class:`repro.faults.FaultInjector` or a
        legacy plain callable) makes the simulated machine misbehave;
        ``recovery`` (a :class:`repro.faults.RecoveryPolicy`) turns on
        retries, replica resends, straggler re-dispatch, and round-level
        checkpoint/rollback with GPU-loss redistribution. Without a
        policy, injected faults surface raw.

        ``initial_values`` / ``initial_active`` warm-start the run for
        delta recompute (:mod:`repro.streaming`): vertex states resume
        from a prior fixpoint and only the provided active set is
        reactivated. The run's rounds are then accounted as
        ``incremental_rounds`` and the activation count as
        ``vertices_reactivated``.

        ``resume=True`` is the whole-job restart path: ``recovery``
        must carry ``durability != "none"`` and a ``run_dir`` holding a
        durable checkpoint store; the run reloads the newest intact
        checkpoint (checksums verified) and replays from its round —
        bit-identical to never having crashed.
        """
        cfg = self.config
        started = time.perf_counter()
        pre = preprocessed or self.preprocess(graph)
        machine = Machine(
            self.spec, fault_injector=fault_injector, recovery=recovery
        )
        machine.stats.preprocess_time_s = pre.modeled_seconds

        run = _Run(
            self,
            machine,
            graph,
            program,
            pre,
            initial_values=initial_values,
            initial_active=initial_active,
        )
        if initial_active is not None:
            machine.stats.vertices_reactivated += int(
                np.count_nonzero(np.asarray(initial_active, dtype=bool))
            )
        converged = run.execute(resume=resume)
        if initial_values is not None or initial_active is not None:
            machine.stats.incremental_rounds += machine.stats.rounds
        return finish_run(
            run, cfg, self.engine_label(), graph_name, converged,
            strict_convergence, started,
        )

    def engine_label(self) -> str:
        """The paper's name for this configuration."""
        if not self.config.use_path_execution:
            return "digraph-t"
        if not self.config.use_priority_scheduling:
            return "digraph-w"
        return "digraph"


class _Run:
    """Mutable state of one engine execution (keeps ``run`` readable)."""

    def __init__(
        self,
        engine: DiGraphEngine,
        machine: Machine,
        graph: DiGraphCSR,
        program: VertexProgram,
        pre: Preprocessed,
        initial_values=None,
        initial_active=None,
    ) -> None:
        self.engine = engine
        self.cfg = engine.config
        self.machine = machine
        self.graph = graph
        self.program = program
        self.pre = pre
        self.states = VertexStates(
            graph,
            program,
            initial_values=initial_values,
            initial_active=initial_active,
        )
        #: Per-preprocess tables (shared by every run over ``pre``).
        self.tables = tables = pre.execution_tables
        self.scheduler = PathScheduler(
            pre.path_set,
            pre.dag,
            enabled=self.cfg.use_priority_scheduling,
            tables=tables.paths,
        )
        self.dispatcher = Dispatcher(
            pre.storage,
            pre.dag,
            machine,
            prefetch=self.cfg.prefetch,
            partition_dependencies=pre.partition_dependencies,
        )
        # The fused gather-apply step every scalar update goes through
        # (path walk, vertex-centric pass, prologue), and each vertex's
        # gather degree.
        kernel = resolve_step(program, graph)
        self.step, self._gather_degree = kernel.step, kernel.degree
        self.round_records: List[RoundRecord] = []

        # Per-run tables of the path walk: each vertex's dependents as a
        # tuple (memoised on first touch from the program's own
        # ``dependents`` where the table has no entry), and each path's
        # expected gather work (sum of gather degrees along it — the
        # pull-model analog of the paper's equal edges-per-thread
        # balancing rule), as an array and a list.
        self._dependents = dependents_table(program, graph)
        self._path_work = np.add.reduceat(
            np.asarray(self._gather_degree, dtype=np.int64)[
                tables.paths.vertices
            ],
            tables.paths.starts,
        )
        self._path_work_list: List[int] = self._path_work.tolist()

        self.groups = self.dispatcher.groups_in_layer_order()
        # Frontier selection: partitions in group layer order and their
        # groups; each group's predecessor groups, flat, and their owner.
        self._layer_order = np.array(
            [pid for group in self.groups for pid in group.partition_ids],
            dtype=np.int64,
        )
        self._layer_group = tables.group_of_partition[self._layer_order]
        preds = tables.group_predecessors
        self._group_preds = np.concatenate([np.zeros(0, np.int64), *preds])
        self._group_pred_owner = np.repeat(
            np.arange(len(preds)), [p.size for p in preds]
        )
        # Per-round replica-sync accumulator: (src_gpu, dst_gpu) -> bytes.
        self._pending_sync_bytes: Dict[Tuple[int, int], int] = {}
        # Vertices riding each pair's pending batch — tracked only under
        # a structured fault injector, so corruption knows which master
        # states a garbled batch poisons.
        self._pending_sync_payload: Dict[Tuple[int, int], List[int]] = {}
        self._track_payloads = machine._structured_injector is not None
        # Send-side ledger over the whole run, recorded at message
        # production time — the machine's receive-side
        # ``replica_pair_bytes`` is recorded at flush time, so comparing
        # the two catches dropped or double flushes (repro.verify).
        self.sync_sent_bytes: Dict[Tuple[int, int], int] = {}
        # GPU currently processing (None outside partition processing)
        # and activations waiting for the next wave boundary, as
        # (producing_gpu, dependents) per partition pass or ``activate``
        # call: every dependent of the changes, flat; those the wave's
        # owner map puts on another GPU are delivered, on the replica
        # batch of their GPU pair (:meth:`_apply_deferred_activations`).
        self._processing_gpu: Optional[int] = None
        self._deferred_activations: List[Tuple[int, List[int]]] = []
        # Fault recovery: the machine's policy, and the largest state
        # change of the budget's final round (set by the round driver,
        # diagnostic for ConvergenceError).
        self.recovery = machine.recovery
        self.last_max_delta = 0.0
        # Round stamp per vertex: a vertex is updated at most once per
        # round (the paper walks each path once per round; replica
        # occurrences re-use the master state instead of recomputing).
        self._processed_stamp = np.zeros(graph.num_vertices, dtype=np.int64)
        self._sweep_stamp = np.zeros(graph.num_vertices, dtype=np.int64)
        # Which GPU last wrote each vertex, and during which wave — a
        # value is fresh on its writer's GPU even before replica sync.
        self._written_gpu = np.full(graph.num_vertices, -1, dtype=np.int64)
        self._written_stamp = np.zeros(graph.num_vertices, dtype=np.int64)
        self._wave_counter = 0
        self._current_round = 0
        self._stamp_counter = 0
        # Per-vertex owner partition (layer-aware; -1 on no path): where
        # the vertex's activity is tracked, and the checkpoint manager's
        # spill attribution.
        self._owner_pid = tables.owner_partition
        # The same map as a list: the flip rule reads it per vertex.
        self._owner_pid_list: List[int] = self._owner_pid.tolist()
        (
            self.partition_active,
            self._partition_was_active,
            self.group_active,
        ) = self._count_activity()
        # One memory, two views. Single elements of the per-vertex arrays
        # and the activity counters are read and written through
        # memoryviews (Python scalars, no NumPy boxing); array-wide
        # operations use the arrays. No array is rebound after this point
        # and a rollback restores them in place (``arr[:] = ...``), so a
        # view taken here stays coherent with its array for the run's life.
        self._views: Dict[str, memoryview] = {
            name: memoryview(array)
            for name, array in {
                **self.vertex_arrays(),
                **self._activity_counters(),
            }.items()
        }
        self._flip = self._activity_flip_rule()
        # Checkpoint lifecycle (this run object is the manager's client).
        self.checkpoints = checkpoint_manager(machine, self)

    # ------------------------------------------------------------------
    # activity bookkeeping
    # ------------------------------------------------------------------
    def _count_activity(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-partition active-vertex counts (a vertex counts at its
        owner partition only), which partitions have any, and
        per-group active-partition counts, from the active flags."""
        owners = self._owner_pid[self.states.active]
        partition_active = np.bincount(
            owners[owners >= 0], minlength=self.pre.storage.num_partitions
        )
        has_active = partition_active > 0
        group_active = np.bincount(
            self.tables.group_of_partition[has_active],
            minlength=len(self.dispatcher.groups),
        )
        return partition_active, has_active, group_active

    def _activity_counters(self) -> Dict[str, np.ndarray]:
        """The kept counters, in :meth:`_count_activity`'s order."""
        return {
            "partition_active": self.partition_active,
            "partition_was_active": self._partition_was_active,
            "group_active": self.group_active,
        }

    def _activity_flip_rule(self):
        """``flip(v, now_active)``: the one rule every flip of a vertex's
        active flag goes through — for a ``v`` whose flag differs from
        ``now_active`` (callers test the flag; most dependents of a
        changed vertex are active already and cost no call)."""
        views = self._views
        active, partition_active = views["active"], views["partition_active"]
        group_active = views["group_active"]
        was_active = views["partition_was_active"]
        owner_pid = self._owner_pid_list
        group_of: List[int] = self.tables.group_of_partition.tolist()

        def flip(v: int, now_active: bool) -> None:
            active[v] = now_active
            # Activity is tracked at the vertex's owner partition only:
            # counting every replica partition would keep upstream groups
            # flickering active (any downstream activation re-marks
            # them), permanently blocking the dependency frontier.
            pid = owner_pid[v]
            if pid < 0:
                return
            count = partition_active[pid] + (1 if now_active else -1)
            if count < 0:
                raise SimulationError(
                    f"vertex {v} deactivated at partition {pid}, which "
                    "counts no active vertex: a double deactivation"
                )
            partition_active[pid] = count
            if count == now_active:
                # The partition's 0 <-> 1 crossing: only this reaches
                # the group counters.
                group_active[group_of[pid]] += 1 if now_active else -1
                was_active[pid] = now_active

        return flip

    def activate(self, vertices: Sequence[int]) -> None:
        """Activate vertices, honoring message-delivery timing.

        A changed state is visible immediately on the GPU that produced
        it, but reaches other GPUs only with the end-of-wave replica
        synchronization — so activations of remote-owned vertices are
        deferred to the wave boundary. Activating them instantly would
        let them process the *stale* snapshot of the very change that
        activated them and then deactivate, losing the update.
        """
        producing_gpu = self._processing_gpu
        local = vertices = [int(v) for v in vertices]
        if producing_gpu is not None:
            # Remote targets are always queued — even if currently
            # active: the target may be processed later this wave
            # against the stale snapshot and deactivate, which would
            # drop this change's message. Local ones ride along;
            # delivery skips them.
            self._deferred_activations.append((producing_gpu, vertices))
            owner_gpu = self._owner_gpu_list
            local = [v for v in vertices if owner_gpu[v] in (producing_gpu, -1)]
        for v in local:
            self._activate_now(v)

    def _activate_now(self, v: int) -> None:
        if not self._views["active"][v]:
            self._flip(v, True)

    def _apply_deferred_activations(
        self, lost_pairs: Set[Tuple[int, int]] = frozenset()
    ) -> None:
        """Deliver cross-GPU activations at the wave boundary.

        An activation message rides its pair's replica batch: if that
        batch was dropped in flight (fault injection without recovery),
        the activation is lost with it — the receiver never learns its
        input changed, which is exactly the failure the conservation and
        fixed-point checkers must catch.
        """
        pending, self._deferred_activations = self._deferred_activations, []
        targets = np.fromiter(
            chain.from_iterable(dependents for _, dependents in pending),
            dtype=np.int64,
        )
        if targets.size == 0:
            return
        producer = np.repeat(
            [gpu for gpu, _ in pending],
            [len(dependents) for _, dependents in pending],
        )
        # The wave's owner map names each message's GPU pair; the
        # producing GPU's own targets were activated on the spot.
        target_gpu = self._owner_gpu[targets]
        remote = (target_gpu != producer) & (target_gpu >= 0)
        for src_gpu, dst_gpu in lost_pairs:
            remote &= (producer != src_gpu) | (target_gpu != dst_gpu)
        # Activation only, so the order the messages land in is
        # immaterial: flip every not-yet-active target at once and bump
        # the owner partitions' (and their groups') counters in bulk.
        active = self.states.active
        woken = np.zeros_like(active)
        woken[targets[remote]] = True
        woken &= ~active
        (woken,) = woken.nonzero()
        active[woken] = True
        owners = self._owner_pid[woken]
        gained = np.bincount(
            owners[owners >= 0], minlength=self.partition_active.size
        )
        newly_active = (self.partition_active == 0) & (gained > 0)
        self.partition_active += gained
        self._partition_was_active[newly_active] = True
        self.group_active += np.bincount(
            self.tables.group_of_partition[newly_active],
            minlength=self.group_active.size,
        )

    def deactivate(self, v: int) -> None:
        if self._views["active"][v]:
            self._flip(v, False)

    def partition_is_active(self, pid: int) -> bool:
        return self._views["partition_active"][pid] > 0

    def active_successor_partitions(self, pid: int) -> int:
        """Eviction-policy input: active direct successor partitions."""
        return int(
            np.count_nonzero(
                self.partition_active[self.tables.partition_successors[pid]]
            )
        )

    # ------------------------------------------------------------------
    # main loop: what the round driver calls (repro.model.rounds)
    # ------------------------------------------------------------------
    def execute(self, resume: bool = False) -> bool:
        """Run topological sweeps until no vertex is active.

        One *round* is one sweep: the dependency frontier is processed,
        which may converge groups and unblock their successors — those
        run within the **same** sweep (the paper dispatches SCC-vertices
        asynchronously as SMXs free up, with no global barrier between
        layers). A partition runs at most once per sweep; a group that
        stays active (an iterating SCC) waits for the next sweep.

        The loop itself — convergence test, checkpoints, GPU-loss
        rollback, resume — is :func:`repro.model.rounds.drive_rounds`.
        """
        return drive_rounds(self, self.cfg.max_rounds, resume)

    def run_round(self, round_index: int) -> None:
        """One sweep over the dependency frontier."""
        self._current_round = round_index + 1
        processed = np.zeros(self.pre.storage.num_partitions, dtype=bool)
        live = self.machine.live_gpu_ids()
        self._sweep_work = {g: [] for g in live}
        self._sweep_atomics = {g: [] for g in live}
        while True:
            runnable = [
                pid
                for pid in self._select_runnable_partitions()
                if not processed[pid]
            ]
            if not runnable:
                break
            processed[runnable] = True
            self._run_wave(runnable)
        # One kernel timeline per sweep: the waves above are
        # bookkeeping boundaries for staleness and activation
        # delivery, but the SMXs run continuously (no global barrier
        # in the asynchronous model) — charging each wave as its own
        # launch would serialize warp-quantization costs that the
        # real system pipelines away.
        self.machine.compute_round(self._sweep_work, self._sweep_atomics)

    def redistribute(self, dead_gpus: Sequence[int]) -> List[int]:
        """Re-place dead GPUs' partitions by the dispatcher's policy.

        The moved partitions' arrays are gone with the dead GPUs' memory
        — survivors reload them from the host lazily (via
        ``ensure_resident``); the driver bills the returned byte sizes
        eagerly as ``retransferred_bytes``.
        """
        policy = getattr(
            self.recovery, "redistribution_policy", "edge-balance"
        )
        return [
            self.pre.storage.partition_bytes(pid)
            for dead in dead_gpus
            for pid in self.dispatcher.redistribute_dead_gpu(
                dead, policy=policy
            )
        ]

    def invariant_checks(self) -> List:
        """Send-vs-receive message and write conservation ledgers, and
        the activity counters against a recount of the active flags."""
        from repro.verify.conservation import verify_run_conservation
        from repro.verify.report import CheckResult

        drifted = [
            name
            for (name, have), want in zip(
                self._activity_counters().items(), self._count_activity()
            )
            if not np.array_equal(have, want)
        ]
        return [
            *verify_run_conservation(
                self.machine.stats, self.sync_sent_bytes
            ).results,
            CheckResult(
                name="engine.activity-counters",
                passed=not drifted,
                detail=(
                    f"{', '.join(drifted)} differ from a recount"
                    if drifted
                    else f"{int(self.partition_active.sum())} active "
                    "vertices counted at their owner partitions"
                ),
            ),
        ]

    def extras(self) -> Dict[str, float]:
        pre = self.pre
        return {
            "num_paths": float(pre.path_set.num_paths),
            "avg_path_length": pre.path_set.average_length(),
            "num_partitions": float(pre.storage.num_partitions),
            "num_scc_vertices": float(pre.dag.num_scc_vertices),
            "giant_scc_path_fraction": pre.dag.giant_scc_path_fraction(),
            "steals": float(self.dispatcher.steal_count),
        }

    def _run_wave(self, runnable: List[int]) -> None:
        """Process one set of runnable partitions concurrently.

        Gather reads go through a per-GPU staleness view: vertices owned
        by another GPU are read at their wave-start snapshot (their new
        states arrive with the next replica synchronization). Thanks to
        dependency-ordered dispatch, a runnable partition's upstream
        inputs are already *converged*, so for them snapshot == fresh —
        the ordering removes the staleness penalty the async baseline
        pays. Inside an iterating multi-GPU SCC the penalty remains,
        matching the paper's observations.
        """
        assignment = self.dispatcher.balance_assignments(runnable)
        self._record_round_start(runnable)
        self._begin_wave()
        for gpu_id, pids in assignment.items():
            self._run_turn(gpu_id, pids)
        self._prefetch_next(runnable)
        lost_pairs = self._flush_replica_sync()
        self._apply_deferred_activations(lost_pairs)

    def _run_turn(self, gpu_id: int, pids: List[int]) -> None:
        """One GPU's share of a wave: its partitions, one after another.

        Both passes (the path walk, and DiGraph-t's per-vertex loop)
        gather from GPU ``g``'s :class:`~repro.model.state.StalenessView`
        *materialised once*, at the turn start, as a plain list — an
        edge read is a list index — and write every update through to
        it. At the turn start the view is the wave-start states with the
        vertices ``g`` owns that an earlier turn of the wave wrote read
        fresh (``g`` has written nothing yet this wave). This is exact:
        during ``g``'s turn only ``g`` writes vertex states, and whatever
        ``g`` writes is fresh to ``g`` (it owns the vertex, or
        ``written_gpu`` / ``written_stamp`` now name ``g`` and this
        wave), so the list and the view agree after every write; and
        ``dispatcher.current_gpu`` moves only before a wave begins and
        between rounds.
        """
        values = self.states.values
        reads = self._wave_start.copy()
        (fresh,) = (
            (self._written_stamp == self._wave_counter)
            & (self._owner_gpu == gpu_id)
        ).nonzero()
        for v, x in zip(fresh.tolist(), values[fresh].tolist()):
            reads[v] = x
        gpu_work: List[int] = []
        gpu_atomics: List[int] = []
        self._processing_gpu = gpu_id
        for pid in pids:
            self.dispatcher.ensure_resident(
                pid, self.active_successor_partitions
            )
            items, item_atomics = self._process_partition(
                pid, gpu_id, reads
            )
            gpu_work.extend(items)
            gpu_atomics.extend(item_atomics)
        self._processing_gpu = None
        self._sweep_work[gpu_id].extend(gpu_work)
        self._sweep_atomics[gpu_id].extend(gpu_atomics)

    def _begin_wave(self) -> None:
        """Per-wave state: partition and vertex -> GPU (placement moves
        only before a wave begins and between rounds), the wave stamp,
        and the wave-start states as a list."""
        self._partition_gpu = self._placement()
        owner_gpu = self._owner_gpu = self._partition_gpu[self._owner_pid]
        # The same map as a list: the walk reads it per dependent.
        self._owner_gpu_list: List[int] = owner_gpu.tolist()
        self._wave_counter += 1
        self._wave_start: List[float] = self.states.values.tolist()

    def prologue(self) -> None:
        """Vertices on no path (no edges at all) get one apply up front."""
        on_no_path = self.states.active & (self._owner_pid < 0)
        reads = self.states.values.tolist() if on_no_path.any() else []
        for v in np.flatnonzero(on_no_path).tolist():
            new, changed = self.step(v, reads[v], reads)
            self.machine.stats.apply_calls += 1
            if changed:
                self.machine.stats.vertex_updates += 1
            self.states.values[v] = reads[v] = new
            self.deactivate(v)
            if changed:
                self.activate(self._dependents_of(v))

    def _dependents_of(self, v: int) -> tuple:
        """``v``'s dependents from the run's table, memoised from the
        program's own ``dependents`` where the table has no entry."""
        targets = self._dependents[v]
        if targets is None:
            targets = self._dependents[v] = tuple(
                map(int, self.program.dependents(self.graph, v))
            )
        return targets

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _select_runnable_partitions(self) -> List[int]:
        """Frontier groups in layer order, plus advance execution."""
        if not self.cfg.use_path_execution:
            # DiGraph-t: no dependency ordering — every active partition.
            return np.flatnonzero(self.partition_active).tolist()
        # Per group, its active predecessor groups; per partition in
        # layer order, whether it is active and its group's blockers.
        group_active = self.group_active
        blockers = np.bincount(
            self._group_pred_owner[group_active[self._group_preds] > 0],
            minlength=group_active.size,
        )[self._layer_group]
        active = self.partition_active[self._layer_order] > 0
        runnable = self._layer_order[active & (blockers == 0)]
        # Advance execution: fill idle capacity with the active groups
        # that have the fewest active precursors (Section 3.1).
        capacity = len(self.machine.live_gpu_ids()) * self.cfg.advance_factor
        if runnable.size < capacity:
            waiting = np.flatnonzero(active & (blockers > 0))
            waiting = waiting[np.argsort(blockers[waiting], kind="stable")]
            runnable = np.concatenate(
                (runnable, self._layer_order[waiting[: capacity - runnable.size]])
            )
        return runnable.tolist()

    def _prefetch_next(self, runnable: Sequence[int]) -> None:
        """Queue the successor partitions' transfers behind this round."""
        if not self.cfg.prefetch:
            return
        queued: Set[int] = set(runnable)
        for pid in runnable:
            for succ in self.dispatcher.partition_successors(pid):
                if succ not in queued and self.partition_is_active(succ):
                    queued.add(succ)
                    self.dispatcher.ensure_resident(
                        succ,
                        self.active_successor_partitions,
                        overlap=True,
                    )

    def _record_round_start(self, runnable: Sequence[int]) -> None:
        partition_active = self.partition_active
        pids = np.asarray(runnable, dtype=np.intp)
        active_slots = int(partition_active[pids].sum())
        total_slots = int(self.tables.partition_vertex_slots[pids].sum())
        self.round_records.append(
            RoundRecord(
                round_index=len(self.round_records),
                partitions_processed=len(runnable),
                partitions_convergent=int(
                    partition_active.size - np.count_nonzero(partition_active)
                ),
                active_fraction_nonconvergent=(
                    active_slots / total_slots if total_slots else 0.0
                ),
                vertex_updates=self.machine.stats.vertex_updates,
            )
        )

    # ------------------------------------------------------------------
    # partition processing
    # ------------------------------------------------------------------
    def _process_partition(
        self, pid: int, gpu_id: int, reads: List[float]
    ) -> Tuple[List[int], List[int]]:
        """Process one partition; returns per-thread (edges, atomics).

        ``reads`` is what gather reads: the turn's write-through list
        (see :meth:`_run_turn`).
        """
        stats = self.machine.stats
        stats.note_partition_processed(pid)

        # The vertex of every master write of the pass, once per write.
        writes: List[int] = []
        if self.cfg.use_path_execution:
            work_items = self._walk_partition(pid, gpu_id, reads, writes)
        else:
            # DiGraph-t: traditional execution loads the whole partition
            # and runs one worklist pass over its vertices — one thread
            # per processed vertex, same as the async baseline.
            partition = self.pre.storage.partitions[pid]
            self.machine.load_global(
                gpu_id,
                nbytes=partition.nbytes,
                vertices=partition.num_vertex_slots,
            )
            work_items = self._process_vertex_centric(
                pid, gpu_id, reads, writes
            )
        atomic_items = [0] * len(work_items)
        if not writes:
            return work_items, atomic_items
        # Contention is accounted once per partition pass (proxies
        # flush at pass end); the atomic pushes are issued by the
        # threads that produced the writes, so spread them evenly
        # over the pass's threads.
        contention = self.pre.replicas.contention(writes)
        stats.atomic_updates += contention.atomic_updates
        stats.proxy_absorbed += contention.proxy_absorbed
        stats.master_writes += contention.total_writes
        if work_items and contention.atomic_updates:
            share, remainder = divmod(
                contention.atomic_updates, len(work_items)
            )
            atomic_items = [share + 1] * remainder + [share] * (
                len(work_items) - remainder
            )

        self._synchronize_replicas(pid, gpu_id, set(writes))
        return work_items, atomic_items

    def _walk_partition(
        self,
        pid: int,
        gpu_id: int,
        reads: List[float],
        writes: List[int],
    ) -> List[int]:
        """Path execution of one partition; returns per-thread gather
        edges walked, and appends each changed update's vertex to
        ``writes``.

        The SMX's warp scheduler keeps re-running its active paths until
        the partition settles (Section 3.2.3): one partition pass
        iterates to *local quiescence* — cross-partition effects wait
        for the next wave. Each iteration schedules and loads only the
        paths holding an active vertex this GPU owns ("only needs to
        access a few paths"), the mechanism behind DiGraph's loaded-data
        utilization (Fig. 13), orders them by ``Pri(p)``, packs them
        onto threads by expected gather work, and walks every thread's
        paths sequentially with immediate in-path state reuse.

        A vertex's *active* flag may only be consumed by the GPU owning
        it: its pending activation encodes "new gather input has arrived
        here". A non-owner replica walking the same vertex on another GPU
        still refines it through the in-path chain (``upstream_changed``)
        but must not deactivate it — doing so would cancel a delivery the
        stale remote pass never saw.

        Everything loop-invariant is read from tables: the partition's
        block of ``E_Idx`` (per preprocess), the fused step with each
        vertex's gather inputs and the dependents (per run), the
        owner-GPU map (per wave) and ``reads`` (per GPU turn). Work
        counters are summed in locals and charged once per local
        iteration — they are integers, so the totals are the per-update
        charges. A changed vertex's dependents all go on the pass's
        deferred list; those on this GPU are also activated at once.
        """
        tables = self.tables
        block = tables.blocks[pid]
        sequences = tables.paths.sequences
        machine, scheduler = self.machine, self.scheduler
        load_global = machine.load_global
        stats = machine.stats
        step, degree_of = self.step, self._gather_degree
        dependents, dependents_of = self._dependents, self._dependents_of
        outgoing: List[int] = []
        self._deferred_activations.append((gpu_id, outgoing))
        send, note_write = outgoing.extend, writes.append
        # Per-element reads and writes go through the run's views; the
        # one array-wide read per local iteration uses the array.
        views, active_flags = self._views, self.states.active
        values, active = views["values"], views["active"]
        processed_stamp = views["processed_stamp"]
        sweep_stamp = views["sweep_stamp"]
        written_gpu = views["written_gpu"]
        written_stamp = views["written_stamp"]
        wave, current_round = self._wave_counter, self._current_round
        owner_gpu = self._owner_gpu_list
        flip = self._flip
        path_work, path_work_list = self._path_work, self._path_work_list
        threads = self.engine.spec.gpu.threads_per_smx

        # Iterating to local quiescence is only productive when the
        # pass computes *final* values: the partition must form its
        # own dispatch group (no mutual dependence with other
        # partitions) and every upstream group must have converged.
        # Inside a multi-partition SCC group, or with live upstream
        # inputs, iterating would churn against a stale snapshot, so
        # the pass runs once and waits for the next delivery.
        quiesce = bool(tables.alone_in_group[pid]) and not (
            self.partition_active[tables.partition_predecessors[pid]].any()
        )
        owned_here = self._owner_gpu[block.vertices] == gpu_id
        work_items: List[int] = []
        for _iteration in range(_MAX_LOCAL_ITERATIONS if quiesce else 1):
            block_active = active_flags[block.vertices]
            (scheduled,) = np.logical_or.reduceat(
                block_active & owned_here, block.starts
            ).nonzero()
            if scheduled.size == 0:
                break
            self._stamp_counter += 1
            stamp = self._stamp_counter
            loaded_vertices = int(block.lengths[scheduled].sum())
            loaded_edges = loaded_vertices - scheduled.size
            load_global(
                gpu_id,
                nbytes=loaded_vertices * 16 + loaded_edges * 8,
                vertices=loaded_vertices,
            )
            # N(p) where Pri(p) is evaluated: the path's distinct
            # active vertices, owned here or not.
            active_counts = np.add.reduceat(
                block_active & block.first_in_path,
                block.starts,
                dtype=np.int64,
            )[scheduled]
            buckets = pack_ordered(
                scheduler.thread_order(
                    block.path_ids[scheduled], active_counts, path_work
                ).tolist(),
                path_work_list,
                threads,
            )
            applies = edges = demand_fetches = 0
            writes_before = len(writes)
            for bucket in buckets:
                edges_walked = 0
                for path_id in bucket:
                    upstream_changed = False
                    for position, v in enumerate(sequences[path_id]):
                        if active[v] and owner_gpu[v] == gpu_id:
                            consumes_active = True
                        elif upstream_changed:
                            consumes_active = False
                        else:
                            continue
                        upstream_changed = False
                        if processed_stamp[v] == stamp:
                            # Already updated this local iteration
                            # (another path occurrence); its master
                            # state is fresh — reuse.
                            continue
                        if not quiesce and sweep_stamp[v] == current_round:
                            # Outside quiescence mode a vertex updates at
                            # most once per sweep: recomputing it again
                            # before the next replica delivery would just
                            # churn on the same stale inputs. If it was
                            # re-activated meanwhile it stays active and
                            # is picked up next sweep.
                            continue
                        processed_stamp[v] = stamp
                        sweep_stamp[v] = current_round
                        # The master state, not ``reads[v]``: a replica
                        # this GPU does not own reads stale here.
                        new, changed = step(v, values[v], reads)
                        degree = degree_of[v]
                        edges_walked += degree
                        applies += 1
                        # Data-use accounting (Fig. 13): the vertex
                        # record plus each neighbor read. One gather
                        # input — the in-path predecessor — sits in the
                        # already-loaded path block (the coalescing
                        # win); the rest are demand fetches of master
                        # records.
                        demand = degree - 1 if position > 0 else degree
                        if demand > 0:
                            demand_fetches += demand
                        values[v] = reads[v] = new
                        written_gpu[v] = gpu_id
                        written_stamp[v] = wave
                        if consumes_active:
                            flip(v, False)
                        if changed:
                            note_write(v)
                            targets = dependents[v]
                            if targets is None:
                                targets = dependents_of(v)
                            # A changed state is visible at once on this
                            # GPU but reaches the others only with the
                            # end-of-wave replica sync (see ``activate``).
                            send(targets)
                            for u in targets:
                                if not active[u] and (
                                    owner_gpu[u] == gpu_id or owner_gpu[u] < 0
                                ):
                                    flip(u, True)
                            upstream_changed = True
                edges += edges_walked
                work_items.append(edges_walked)
            stats.apply_calls += applies
            stats.vertex_updates += len(writes) - writes_before
            stats.edge_traversals += edges
            # The walk streams every loaded slot of its paths
            # sequentially (it must, to follow the chain) — each streamed
            # record is a use of loaded data, the coalescing win Fig. 13
            # measures.
            stats.vertex_uses += loaded_vertices + edges
            if demand_fetches:
                load_global(
                    gpu_id,
                    nbytes=8 * demand_fetches,
                    vertices=demand_fetches,
                )
        return work_items

    def _process_vertex_centric(
        self,
        pid: int,
        gpu_id: int,
        reads: List[float],
        writes: List[int],
    ) -> List[int]:
        """DiGraph-t: active vertices in id order, immediate visibility.

        Like the path walk, only the owner GPU consumes a vertex's active
        flag (see :meth:`_walk_partition`). Returns per-vertex work items
        (gather degrees)."""
        stats = self.machine.stats
        # The partition's vertices this GPU owns, ascending. Ownership
        # is fixed for the wave; activity is not — an update here may
        # activate a later vertex of the same pass.
        vertices = np.unique(self.tables.blocks[pid].vertices)
        owned = vertices[self._owner_gpu[vertices] == gpu_id]
        step, degree_of = self.step, self._gather_degree
        views, flip, wave = self._views, self._flip, self._wave_counter
        values, active = views["values"], views["active"]
        written_gpu = views["written_gpu"]
        written_stamp = views["written_stamp"]
        items: List[int] = []
        for v in owned.tolist():
            if not active[v]:
                continue
            # An owned vertex reads fresh: ``reads[v]`` is its master.
            new, changed = step(v, reads[v], reads)
            items.append(degree_of[v])
            values[v] = reads[v] = new
            written_gpu[v] = gpu_id
            written_stamp[v] = wave
            flip(v, False)
            if changed:
                stats.vertex_updates += 1
                writes.append(v)
                self.activate(self._dependents_of(v))
        degree_sum = sum(items)
        stats.apply_calls += len(items)
        stats.edge_traversals += degree_sum
        # Demand fetches: no path block to amortize gather reads.
        if degree_sum > 0:
            self.machine.load_global(
                gpu_id, nbytes=8 * degree_sum, vertices=degree_sum
            )
        self.machine.note_vertex_uses(len(items) + degree_sum)
        return items

    def _synchronize_replicas(
        self, pid: int, gpu_id: int, changed: Set[int]
    ) -> None:
        """Batched replica-update messages to remote mirror partitions.

        Messages are grouped per destination partition (Section 3.2.2's
        arrangement "according to the IDs of the destination partitions"),
        one batch of the pass's mean batch size each, and accumulated
        per GPU pair; the NCCL ring moves each pair's accumulated batch
        once per round (flushed by the main loop).
        """
        replicas = self.pre.replicas
        messages = replicas.messages_per_destination(pid, changed)
        (destinations,) = messages.nonzero()
        if destinations.size == 0:
            return
        nbytes = BYTES_PER_MESSAGE * max(
            1, int(messages.sum()) // destinations.size
        )
        payload = (
            replicas.payload_by_destination(pid, changed)
            if self._track_payloads
            else None
        )
        for dest, dst_gpu in zip(
            destinations.tolist(), self._partition_gpu[destinations].tolist()
        ):
            if dst_gpu == gpu_id:
                continue  # same-GPU sync stays in global memory
            key = (gpu_id, dst_gpu)
            self._pending_sync_bytes[key] = (
                self._pending_sync_bytes.get(key, 0) + nbytes
            )
            self.sync_sent_bytes[key] = (
                self.sync_sent_bytes.get(key, 0) + nbytes
            )
            if payload is not None:
                self._pending_sync_payload.setdefault(key, []).extend(
                    payload[dest]
                )

    def _flush_replica_sync(self) -> Set[Tuple[int, int]]:
        """Send each GPU pair's accumulated replica batch for this round.

        Batches go through :meth:`Machine.deliver_replica_batch`, so
        fault injection can drop or corrupt them. Returns the pairs
        whose batch was lost (the wave boundary must discard their
        deferred activations too); a corrupted batch that slipped
        through poisons the payload vertices' master states — garbage
        the fixed-point oracle is expected to flag.
        """
        lost_pairs: Set[Tuple[int, int]] = set()
        for (src_gpu, dst_gpu), nbytes in sorted(
            self._pending_sync_bytes.items()
        ):
            outcome = self.machine.deliver_replica_batch(
                src_gpu, dst_gpu, nbytes
            )
            if outcome.status == "dropped":
                lost_pairs.add((src_gpu, dst_gpu))
            elif outcome.status == "corrupted":
                for v in self._pending_sync_payload.get(
                    (src_gpu, dst_gpu), ()
                ):
                    self.states.values[v] = outcome.poison
        self._pending_sync_bytes.clear()
        self._pending_sync_payload.clear()
        return lost_pairs

    # ------------------------------------------------------------------
    # CheckpointManager client protocol
    # ------------------------------------------------------------------
    # The logical state a rollback must restore (see
    # ``repro.faults.checkpoint`` for the duck-typed protocol): vertex
    # values and activity, the staleness stamps, the partition/group
    # activity counters, pending cross-GPU messages, BOTH
    # replica-conservation ledgers (send side on the run, receive side
    # in ``MachineStats`` — restoring only one would leave a phantom
    # mismatch after replay), and partition placement. Time and work
    # counters are deliberately *not* covered: the aborted attempt
    # really happened; its cost is surfaced via ``recovery_time_s``.
    def vertex_arrays(self) -> Dict[str, np.ndarray]:
        return {
            "values": self.states.values,
            "active": self.states.active,
            "processed_stamp": self._processed_stamp,
            "sweep_stamp": self._sweep_stamp,
            "written_gpu": self._written_gpu,
            "written_stamp": self._written_stamp,
        }

    def vertex_gpu(self) -> np.ndarray:
        # Unowned vertices (owner_pid == -1) map to the -1 sentinel slot.
        return self._placement()[self._owner_pid]

    def _placement(self) -> np.ndarray:
        """Each partition's current GPU, then a -1 sentinel slot."""
        current = self.dispatcher.current_gpu
        pid_gpu = np.full(
            self.pre.storage.num_partitions + 1, -1, dtype=np.int64
        )
        pid_gpu[np.fromiter(current, np.int64, len(current))] = np.fromiter(
            current.values(), np.int64, len(current)
        )
        return pid_gpu

    def capture_scalars(self) -> Dict[str, object]:
        return {
            "partition_active": self.partition_active.copy(),
            "group_active": self.group_active.copy(),
            "was_active": self._partition_was_active.copy(),
            "wave_counter": self._wave_counter,
            "stamp_counter": self._stamp_counter,
            "current_round": self._current_round,
            "deferred": [
                (gpu, list(vs)) for gpu, vs in self._deferred_activations
            ],
            "pending_sync": dict(self._pending_sync_bytes),
            "pending_payload": {
                pair: list(vs)
                for pair, vs in self._pending_sync_payload.items()
            },
            "sent_ledger": dict(self.sync_sent_bytes),
            "recv_ledger": dict(self.machine.stats.replica_pair_bytes),
            "current_gpu": dict(self.dispatcher.current_gpu),
            "num_round_records": len(self.round_records),
        }

    def restore_scalars(self, scalars: Dict[str, object]) -> None:
        self.partition_active[:] = scalars["partition_active"]
        self.group_active[:] = scalars["group_active"]
        self._partition_was_active[:] = scalars["was_active"]
        self._wave_counter = scalars["wave_counter"]
        self._stamp_counter = scalars["stamp_counter"]
        self._current_round = scalars["current_round"]
        self._deferred_activations = [
            (gpu, list(vs)) for gpu, vs in scalars["deferred"]
        ]
        self._pending_sync_bytes = dict(scalars["pending_sync"])
        self._pending_sync_payload = {
            pair: list(vs)
            for pair, vs in scalars["pending_payload"].items()
        }
        self.sync_sent_bytes = dict(scalars["sent_ledger"])
        self.machine.stats.replica_pair_bytes = dict(
            scalars["recv_ledger"]
        )
        self.dispatcher.current_gpu = dict(scalars["current_gpu"])
        del self.round_records[scalars["num_round_records"]:]
