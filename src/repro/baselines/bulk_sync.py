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

from dataclasses import dataclass
from typing import Dict, Set

import numpy as np

from repro.kernels.base import ScalarFallbackKernel
from repro.kernels.registry import resolve_kernel
from repro.core.storage import BYTES_PER_MESSAGE, BYTES_PER_STATE
from repro.baselines.common import (
    BaselineConfig,
    BaselineEngine,
    BaselineFaultHarness,
)

#: Per-round barrier/allreduce payload per GPU pair (frontier sizes etc.).
BARRIER_SYNC_BYTES = 64


@dataclass(frozen=True)
class BulkSyncConfig(BaselineConfig):
    """Tunables of the bulk-synchronous baseline."""

    #: Run the round on the program's vectorized batch kernel
    #: (:mod:`repro.kernels`) instead of its step kernel looped per
    #: vertex. Bit-identical rounds and identical modeled accounting:
    #: the round is the same, only its kernel changes. Programs without
    #: a registered batch kernel loop the step kernel either way.
    use_vectorized_kernels: bool = False


class _BulkSyncRun(BaselineFaultHarness):
    """One BSP execution: the harness plus its one round.

    The round is batched: BSP gathers against the round-start snapshot,
    which is exactly the batched formulation, so the frontier's
    gather-apply, degrees and dependents each come from one kernel call
    and the accounting runs as NumPy array operations.
    ``use_vectorized_kernels`` picks only the kernel: the program's
    registered batch kernel, or its fused step kernel looped behind the
    same interface (:class:`~repro.kernels.base.ScalarFallbackKernel`).
    The two are bit-identical, so states, round records and every
    modeled counter match between them.
    """

    def __init__(self, engine, graph, program, fault_injector, recovery):
        super().__init__(engine, graph, program, fault_injector, recovery)
        self.kernel = (
            resolve_kernel(program, graph)
            if engine.config.use_vectorized_kernels
            else ScalarFallbackKernel(program, graph)
        )

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

    def run_round(self, round_index: int) -> None:
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
                    gpu,
                    nbytes=BYTES_PER_STATE * degree_sum,
                    vertices=degree_sum,
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
            # lands.
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
                # Push in first-occurrence order — the order a sweep of
                # the changed vertices, ascending, first meets each pair
                # — which fixes the float accumulation of
                # transfer_time_s and the fault plan's consumption order.
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


class BulkSyncEngine(BaselineEngine):
    """Vertex-centric BSP engine (the Gunrock-like comparator)."""

    name = "bulk-sync"
    config_class = BulkSyncConfig
    run_class = _BulkSyncRun
