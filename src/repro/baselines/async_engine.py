"""Groute-like asynchronous baseline engine.

Per-partition worklists, no inter-round barrier, immediate state
visibility — but **no dependency ordering**: every partition with a
non-empty worklist is processed each round, in partition order, each
vertex once per pass against the freshest available states. Activations
land in the next pass, so a state still needs one pass per hop inside a
partition's dependency chains, and partitions are re-processed whenever
any neighbor partition feeds them a new state — the reprocessing behavior
Fig. 2(a)/(b) measures and DiGraph's dependency-aware dispatch removes.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from repro.core.storage import BYTES_PER_MESSAGE, BYTES_PER_STATE
from repro.baselines.common import (
    BaselineConfig,
    BaselineEngine,
    BaselineFaultHarness,
)
from repro.kernels.steps import dependents_table, resolve_step


#: The async baseline takes exactly the shared baseline tunables.
AsyncConfig = BaselineConfig


class _AsyncRun(BaselineFaultHarness):
    """One asynchronous execution: the harness plus its worklist round."""

    preprocess_overhead = 1.04

    def __init__(self, engine, graph, program, fault_injector, recovery):
        super().__init__(engine, graph, program, fault_injector, recovery)
        #: The fused gather-apply step and each vertex's gather degree.
        self.step_kernel = resolve_step(program, graph)
        # Each vertex's dependents as a tuple of ints (memoised on first
        # touch from the program's own ``dependents`` where the table
        # has no entry).
        self._dependents = dependents_table(program, graph)
        #: The round's gather reads, one write-through list per GPU
        #: (see :meth:`run_round`).
        self.gpu_reads: Dict[int, List[float]] = {}

    def run_round(self, round_index: int) -> None:
        graph, program, machine = self.graph, self.program, self.machine
        partitions, states = self.partitions, self.states
        stats = machine.stats
        step, degree_of, _ = self.step_kernel
        dependents = self._dependents
        values, active = states.values, states.active
        gpu_of_vertex = self.gpu_of_vertex.tolist()
        # Snapshot which partitions have active vertices at round start:
        # the ascending frontier cut at the (contiguous) range bounds.
        frontier = states.active_vertices()
        active_pids, first = np.unique(
            self.pid_of_vertex[frontier], return_index=True
        )
        worklists = np.split(frontier, first[1:])

        work: Dict[int, List[int]] = {g: [] for g in range(machine.num_gpus)}
        atomics: Dict[int, List[int]] = {
            g: [] for g in range(machine.num_gpus)
        }
        updates_this_round = 0
        touched_vertex_total = 0
        batch_bytes: Dict[tuple, int] = {}
        # Cross-GPU activations deliver with the end-of-round push:
        # activating them instantly would let them consume the stale
        # snapshot of the change that activated them and converge
        # incorrectly. They are kept per GPU pair so a dropped batch
        # loses exactly its own activations.
        pair_activations: Dict[tuple, List[int]] = {}
        pair_sources: Dict[tuple, List[int]] = {}

        # Multi-GPU staleness: a GPU reads fresh states for its own
        # vertices but only round-start snapshots of remote ones (new
        # remote states arrive with the next transfer) — the paper's
        # Fig. 1/2 one-hop-per-round propagation across partitions.
        # Each GPU gathers from its own copy of the round-start states
        # and writes its updates through to it. That *is*
        # ``StalenessView(values, snapshot, gpu_of_vertex == g)`` read
        # by read: only the GPU owning ``v`` ever writes ``v``, and
        # ``v`` is fresh only to that GPU. (Poison from a corrupted push
        # lands after the loop, when no one reads any more.)
        snapshot = values.tolist()
        gpu_reads = self.gpu_reads = {}

        for pid, worklist in zip(active_pids.tolist(), worklists):
            partition = partitions[pid]
            gpu = partition.gpu
            stats.note_partition_processed(pid)
            machine.load_global(
                gpu,
                nbytes=partition.nbytes,
                vertices=partition.num_vertices,
            )
            touched_vertex_total += partition.num_vertices
            reads = gpu_reads.get(gpu)
            if reads is None:
                reads = gpu_reads[gpu] = snapshot.copy()
            gpu_work, gpu_atomics = work[gpu], atomics[gpu]
            processed = degree_sum = updates = 0

            for v in worklist.tolist():
                if not active[v]:
                    continue
                active[v] = False
                new, changed = step(v, reads[v], reads)
                degree = degree_of[v]
                processed += 1
                degree_sum += degree
                values[v] = reads[v] = new
                gpu_work.append(degree)
                gpu_atomics.append(1 if changed else 0)
                if not changed:
                    continue
                updates += 1
                targets = dependents[v]
                if targets is None:
                    targets = dependents[v] = tuple(
                        map(int, program.dependents(graph, v))
                    )
                remote: Set[int] = set()
                for u in targets:
                    dst_gpu = gpu_of_vertex[u]
                    if dst_gpu != gpu:
                        remote.add(dst_gpu)
                        pair_activations.setdefault(
                            (gpu, dst_gpu), []
                        ).append(u)
                    else:
                        active[u] = True
                for dst_gpu in remote:
                    key = (gpu, dst_gpu)
                    batch_bytes[key] = (
                        batch_bytes.get(key, 0) + BYTES_PER_MESSAGE
                    )
                    pair_sources.setdefault(key, []).append(v)

            stats.apply_calls += processed
            stats.edge_traversals += degree_sum
            # Demand fetches: gather reads pull each predecessor's
            # record into cores individually (random access).
            machine.load_global(
                gpu, nbytes=BYTES_PER_STATE * degree_sum, vertices=degree_sum
            )
            machine.note_vertex_uses(processed + degree_sum)
            stats.vertex_updates += updates
            # No proxy vertices: every changed write is an atomic.
            stats.atomic_updates += updates
            updates_this_round += updates

        # Groute pushes worklist messages asynchronously over the ring;
        # they overlap with compute (no barrier).
        self.deliver_batches(batch_bytes, pair_sources, pair_activations)
        machine.compute_round(work, atomics, barrier=False)

        self.record_round(
            round_index,
            int(active_pids.size),
            int(frontier.size),
            touched_vertex_total,
            updates_this_round,
        )


class AsyncEngine(BaselineEngine):
    """Asynchronous per-partition worklist engine (the Groute-like
    comparator)."""

    name = "async"
    run_class = _AsyncRun
