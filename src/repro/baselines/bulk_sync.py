"""Gunrock-like bulk-synchronous baseline engine.

Frontier-centric BSP: each round consumes the active-vertex frontier,
computes every update against a **snapshot of round-start states**
(Jacobi), commits behind a global barrier, and builds the next frontier
from the changed vertices' dependents. This is the execution-model class
the paper compares against: one hop of state propagation per round, a
barrier every round (idle waiting on the slowest GPU), and whole-partition
loads regardless of how few vertices are active.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraphCSR
from repro.gpu.config import MachineSpec
from repro.kernels.registry import resolve_kernel
from repro.model.frontier import Frontier
from repro.model.gas import VertexProgram
from repro.model.rounds import drive_rounds, finish_run
from repro.bench.results import ExecutionResult
from repro.core.storage import BYTES_PER_MESSAGE
from repro.baselines.common import BaselineFaultHarness

#: Per-round barrier/allreduce payload per GPU pair (frontier sizes etc.).
BARRIER_SYNC_BYTES = 64


@dataclass(frozen=True)
class BulkSyncConfig:
    """Tunables of the bulk-synchronous baseline."""

    #: ``None`` sizes partitions adaptively (~64 per graph).
    target_edges_per_partition: Optional[int] = None
    max_rounds: int = 100000
    n_workers: int = 1
    #: Batch each round's gather-apply through the vectorized kernels
    #: (:mod:`repro.kernels`). Bit-identical rounds and identical
    #: modeled accounting — BSP already computes against the round-start
    #: snapshot, which is exactly the batched formulation. Programs
    #: without a registered kernel run the scalar fallback.
    use_vectorized_kernels: bool = False
    #: Check the converged states against the program's own update
    #: equations (:mod:`repro.verify`), raising
    #: :class:`~repro.errors.VerificationError` on a violation.
    verify_invariants: bool = False

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")


class BulkSyncEngine:
    """Vertex-centric BSP engine (the Gunrock-like comparator)."""

    name = "bulk-sync"

    def __init__(
        self,
        machine_spec: Optional[MachineSpec] = None,
        config: Optional[BulkSyncConfig] = None,
    ) -> None:
        self.spec = machine_spec or MachineSpec()
        self.config = config or BulkSyncConfig()

    def run(
        self,
        graph: DiGraphCSR,
        program: VertexProgram,
        graph_name: str = "graph",
        strict_convergence: bool = True,
        fault_injector=None,
        recovery=None,
        resume: bool = False,
    ) -> ExecutionResult:
        started = time.perf_counter()
        run = _BulkSyncRun(self, graph, program, fault_injector, recovery)
        converged = drive_rounds(run, self.config.max_rounds, resume)
        return finish_run(
            run, self.config, self.name, graph_name, converged,
            strict_convergence, started,
        )


class _BulkSyncRun(BaselineFaultHarness):
    """One BSP execution: the harness plus the round it runs.

    The per-vertex round is the original code path and stays as the
    differential reference; with ``use_vectorized_kernels`` the batched
    round replaces it update for update — BSP gathers against the
    round-start snapshot, which is exactly the batched formulation, so
    states, round records, and every modeled counter (``apply_calls``,
    ``edge_traversals``, ``load_global`` bytes, messages) match — the
    loops just run as NumPy array operations instead of per-vertex
    Python.
    """

    def __init__(self, engine, graph, program, fault_injector, recovery):
        super().__init__(engine, graph, program, fault_injector, recovery)
        self.kernel = (
            resolve_kernel(program, graph)
            if engine.config.use_vectorized_kernels
            else None
        )

    def run_round(self, round_index: int) -> None:
        if self.kernel is None:
            self._scalar_round(round_index)
        else:
            self._vectorized_round(round_index)

    def _load_touched(self, touched_partitions: Set[int]) -> None:
        """Whole-partition loads for every touched partition (Fig. 13's
        denominator: many loaded vertices, few used)."""
        for partition in self.partitions:
            if partition.partition_id in touched_partitions:
                self.machine.load_global(
                    partition.gpu,
                    nbytes=partition.nbytes,
                    vertices=partition.num_vertices,
                )
                self.machine.stats.note_partition_processed(
                    partition.partition_id
                )

    def _scalar_round(self, round_index: int) -> None:
        graph, program, machine = self.graph, self.program, self.machine
        partitions, states = self.partitions, self.states
        step, degree_of, _ = self.step_kernel
        gpu_of_vertex = self.gpu_of_vertex.tolist()
        frontier = Frontier.from_mask(states.active)
        touched_partitions = set(
            np.unique(self.pid_of_vertex[states.active]).tolist()
        )
        stats = machine.stats
        # Jacobi: every update of the round reads the round-start states.
        snapshot = states.values.tolist()
        work: Dict[int, List[int]] = {g: [] for g in range(machine.num_gpus)}
        atomics: Dict[int, List[int]] = {
            g: [] for g in range(machine.num_gpus)
        }
        pending: List = []  # (v, new_state, changed)

        for v in frontier:
            gpu = gpu_of_vertex[v]
            new, changed = step(v, snapshot[v], snapshot)
            degree = degree_of[v]
            pending.append((v, new, changed))
            stats.apply_calls += 1
            stats.edge_traversals += degree
            # Demand fetches for gather reads (random access).
            machine.load_global(gpu, nbytes=8 * degree, vertices=degree)
            machine.note_vertex_uses(1 + degree)
            work[gpu].append(degree)
            atomics[gpu].append(1 if changed else 0)

        self._load_touched(touched_partitions)
        machine.compute_round(work, atomics, barrier=True)

        # Barrier + state synchronization: changed vertices whose
        # dependents live on another GPU are broadcast there. A remote
        # dependent activates only when its pair's batch lands.
        updates_this_round = 0
        batch_bytes: Dict[tuple, int] = {}
        pair_activations: Dict[tuple, List[int]] = {}
        pair_sources: Dict[tuple, List[int]] = {}
        for v, new, changed in pending:
            states.deactivate(v)
        for v, new, changed in pending:
            states.values[v] = new
            if not changed:
                continue
            updates_this_round += 1
            stats.vertex_updates += 1
            src_gpu = gpu_of_vertex[v]
            remote_gpus: Set[int] = set()
            for u in program.dependents(graph, v):
                dst_gpu = gpu_of_vertex[u]
                if dst_gpu == src_gpu:
                    states.activate([u])
                    continue
                pair_activations.setdefault(
                    (src_gpu, dst_gpu), []
                ).append(int(u))
                remote_gpus.add(dst_gpu)
            for dst_gpu in remote_gpus:
                key = (src_gpu, dst_gpu)
                batch_bytes[key] = (
                    batch_bytes.get(key, 0) + BYTES_PER_MESSAGE
                )
                pair_sources.setdefault(key, []).append(v)
        self.deliver_batches(
            batch_bytes, pair_sources, pair_activations, barrier=True
        )
        # The barrier itself: an all-to-all control exchange.
        for gpu in machine.live_gpu_ids():
            machine.transfer(gpu, "host", BARRIER_SYNC_BYTES)

        self.record_round(
            round_index,
            len(touched_partitions),
            len(frontier),
            sum(partitions[pid].num_vertices for pid in touched_partitions),
            updates_this_round,
        )

    def _vectorized_round(self, round_index: int) -> None:
        machine, partitions, states = (
            self.machine, self.partitions, self.states
        )
        kernel = self.kernel
        gpu_of_vertex = self.gpu_of_vertex
        frontier = np.flatnonzero(states.active)
        stats = machine.stats
        num_gpus = machine.num_gpus
        snapshot = states.copy_values()
        old = snapshot[frontier]
        new, changed = kernel.batch_update(frontier, snapshot, old)
        degrees = kernel.gather_degrees(frontier)
        gpus = gpu_of_vertex[frontier]
        touched_partitions = set(
            np.unique(self.pid_of_vertex[frontier]).tolist()
        )

        stats.apply_calls += int(frontier.size)
        stats.edge_traversals += int(degrees.sum())
        machine.note_vertex_uses(int(frontier.size + degrees.sum()))
        work: Dict[int, np.ndarray] = {}
        atomics: Dict[int, np.ndarray] = {}
        for gpu in range(num_gpus):
            on_gpu = gpus == gpu
            gpu_degrees = degrees[on_gpu]
            degree_sum = int(gpu_degrees.sum())
            if degree_sum:
                # Demand fetches for gather reads (random access).
                machine.load_global(
                    gpu, nbytes=8 * degree_sum, vertices=degree_sum
                )
            work[gpu] = gpu_degrees
            atomics[gpu] = changed[on_gpu]

        self._load_touched(touched_partitions)
        machine.compute_round(work, atomics, barrier=True)

        # Barrier + state synchronization.
        states.active[frontier] = False
        states.values[frontier] = new
        changed_frontier = frontier[changed]
        updates_this_round = int(changed_frontier.size)
        stats.vertex_updates += updates_this_round
        if updates_this_round:
            targets, seg_offsets = kernel.batch_dependents(
                changed_frontier
            )
            # Replica messages: one per (changed vertex, remote GPU
            # holding a dependent) pair, accumulated per GPU pair.
            src_gpus = gpus[changed]
            target_gpus = gpu_of_vertex[targets]
            seg_ids = np.repeat(
                np.arange(changed_frontier.size, dtype=np.int64),
                np.diff(seg_offsets),
            )
            remote = target_gpus != src_gpus[seg_ids]
            # Remote dependents activate only when their pair's batch
            # lands (as in the scalar round).
            states.active[targets[~remote]] = True
            if remote.any():
                per_vertex_remote = np.unique(
                    seg_ids[remote] * num_gpus + target_gpus[remote]
                )
                pair_keys, pair_first, pair_counts = np.unique(
                    src_gpus[per_vertex_remote // num_gpus] * num_gpus
                    + per_vertex_remote % num_gpus,
                    return_index=True,
                    return_counts=True,
                )
                # Each pair's remote dependents, grouped by one stable
                # sort (``pair_keys`` is ascending).
                carried = np.flatnonzero(remote)
                carried_pairs = (
                    src_gpus[seg_ids[carried]] * num_gpus
                    + target_gpus[carried]
                )
                order = np.argsort(carried_pairs, kind="stable")
                by_pair = np.split(
                    carried[order],
                    np.searchsorted(carried_pairs[order], pair_keys[1:]),
                )
                # Push in first-occurrence order — the order the scalar
                # path inserts pairs into its dict while sweeping
                # vertices ascending — so the float accumulation of
                # transfer_time_s and the fault plan's consumption order
                # are bit-identical to the scalar path.
                batch_bytes, sources, activations = {}, {}, {}
                for i in np.argsort(pair_first, kind="stable"):
                    pair = divmod(int(pair_keys[i]), num_gpus)
                    batch_bytes[pair] = (
                        int(pair_counts[i]) * BYTES_PER_MESSAGE
                    )
                    sources[pair] = changed_frontier[seg_ids[by_pair[i]]]
                    activations[pair] = targets[by_pair[i]]
                self.deliver_batches(
                    batch_bytes, sources, activations, barrier=True
                )
        # The barrier itself: an all-to-all control exchange.
        for gpu in machine.live_gpu_ids():
            machine.transfer(gpu, "host", BARRIER_SYNC_BYTES)

        self.record_round(
            round_index,
            len(touched_partitions),
            int(frontier.size),
            sum(partitions[pid].num_vertices for pid in touched_partitions),
            updates_this_round,
        )
