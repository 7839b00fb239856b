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

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraphCSR
from repro.gpu.config import MachineSpec
from repro.model.gas import VertexProgram
from repro.model.rounds import drive_rounds, finish_run
from repro.model.state import StalenessView
from repro.bench.results import ExecutionResult
from repro.core.storage import BYTES_PER_MESSAGE
from repro.baselines.common import BaselineFaultHarness, partition_of_vertex


@dataclass(frozen=True)
class AsyncConfig:
    """Tunables of the asynchronous baseline."""

    #: ``None`` sizes partitions adaptively (~64 per graph).
    target_edges_per_partition: Optional[int] = None
    max_rounds: int = 100000
    n_workers: int = 1
    #: Check the converged states against the program's own update
    #: equations (:mod:`repro.verify`), raising
    #: :class:`~repro.errors.VerificationError` on a violation.
    verify_invariants: bool = False

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")


class AsyncEngine:
    """Asynchronous per-partition worklist engine (the Groute-like
    comparator)."""

    name = "async"

    def __init__(
        self,
        machine_spec: Optional[MachineSpec] = None,
        config: Optional[AsyncConfig] = None,
    ) -> None:
        self.spec = machine_spec or MachineSpec()
        self.config = config or AsyncConfig()

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
        run = _AsyncRun(self, graph, program, fault_injector, recovery)
        converged = drive_rounds(run, self.config.max_rounds, resume)
        return finish_run(
            run, self.config, self.name, graph_name, converged,
            strict_convergence, started,
        )


class _AsyncRun(BaselineFaultHarness):
    """One asynchronous execution: the harness plus its worklist round."""

    preprocess_overhead = 1.04

    def run_round(self, round_index: int) -> None:
        graph, program, machine = self.graph, self.program, self.machine
        partitions, states, faulted = (
            self.partitions, self.states, self.faulted
        )
        stats = machine.stats
        # GPU residency per vertex, for the staleness views. Recomputed
        # per round — recovery may re-place partitions mid-run.
        gpu_of_vertex = np.empty(graph.num_vertices, dtype=np.int64)
        for partition in partitions:
            gpu_of_vertex[partition.lo : partition.hi] = partition.gpu
        local_masks = [
            gpu_of_vertex == gpu for gpu in range(machine.num_gpus)
        ]
        # Snapshot which partitions have active vertices at round start.
        active_by_partition: Dict[int, List[int]] = {}
        for v in states.active_vertices():
            pid = partition_of_vertex(partitions, int(v)).partition_id
            active_by_partition.setdefault(pid, []).append(int(v))

        work: Dict[int, List[int]] = {g: [] for g in range(machine.num_gpus)}
        atomics: Dict[int, List[int]] = {
            g: [] for g in range(machine.num_gpus)
        }
        updates_this_round = 0
        active_snapshot_total = 0
        touched_vertex_total = 0
        messages_between: Dict[tuple, int] = {}
        # Cross-GPU activations deliver with the end-of-round push:
        # activating them instantly would let them consume the stale
        # snapshot of the change that activated them and converge
        # incorrectly. On the fault path they are kept per GPU pair so a
        # dropped batch loses exactly its own activations.
        deferred_activations: List[int] = []
        pair_activations: Dict[tuple, List[int]] = {}
        pair_sources: Dict[tuple, List[int]] = {}

        # Multi-GPU staleness: a GPU reads fresh states for its own
        # vertices but only round-start snapshots of remote ones (new
        # remote states arrive with the next transfer) — the paper's
        # Fig. 1/2 one-hop-per-round propagation across partitions.
        snapshot = states.copy_values()
        views = [
            StalenessView(states.values, snapshot, mask)
            for mask in local_masks
        ]

        for pid, worklist in sorted(active_by_partition.items()):
            partition = partitions[pid]
            stats.note_partition_processed(pid)
            machine.load_global(
                partition.gpu,
                nbytes=partition.nbytes,
                vertices=partition.num_vertices,
            )
            active_snapshot_total += len(worklist)
            touched_vertex_total += partition.num_vertices

            for v in worklist:
                if not states.active[v]:
                    continue
                states.deactivate(v)
                new, changed = program.update_vertex(
                    graph,
                    v,
                    views[partition.gpu],
                    old_state=float(states.values[v]),
                )
                degree = program.gather_degree(graph, v)
                stats.apply_calls += 1
                stats.edge_traversals += degree
                # Demand fetches: gather reads pull each predecessor's
                # record into cores individually (random access).
                machine.load_global(
                    partition.gpu, nbytes=8 * degree, vertices=degree
                )
                machine.note_vertex_uses(1 + degree)
                states.values[v] = new
                work[partition.gpu].append(degree)
                atomics[partition.gpu].append(1 if changed else 0)
                if not changed:
                    continue
                updates_this_round += 1
                stats.vertex_updates += 1
                # No proxy vertices: every changed write is an atomic.
                stats.atomic_updates += 1
                remote: Set[int] = set()
                for u in program.dependents(graph, v):
                    dst = partition_of_vertex(partitions, int(u))
                    if dst.gpu != partition.gpu:
                        remote.add(dst.gpu)
                        if faulted:
                            pair_activations.setdefault(
                                (partition.gpu, dst.gpu), []
                            ).append(int(u))
                        else:
                            deferred_activations.append(int(u))
                    else:
                        states.activate([u])
                for dst_gpu in remote:
                    key = (partition.gpu, dst_gpu)
                    messages_between[key] = (
                        messages_between.get(key, 0) + 1
                    )
                    pair_sources.setdefault(key, []).append(v)

        delivered_pairs: List[tuple] = []
        for (src_gpu, dst_gpu), count in messages_between.items():
            # Groute pushes worklist messages asynchronously over the
            # ring; they overlap with compute (no barrier).
            if not faulted:
                machine.transfer_async(
                    src_gpu, dst_gpu, count * BYTES_PER_MESSAGE
                )
                continue
            outcome = machine.deliver_replica_batch(
                src_gpu, dst_gpu, count * BYTES_PER_MESSAGE
            )
            if outcome.status == "dropped":
                # The push never arrived: its activations are lost.
                continue
            if outcome.status == "corrupted" and outcome.poison is not None:
                # The garbled payload overwrites the states it carried.
                for v in pair_sources[(src_gpu, dst_gpu)]:
                    states.values[v] = outcome.poison
            delivered_pairs.append((src_gpu, dst_gpu))
        machine.compute_round(work, atomics, barrier=False)
        states.activate(deferred_activations)
        for key in delivered_pairs:
            states.activate(pair_activations.get(key, []))

        self.record_round(
            round_index,
            len(active_by_partition),
            active_snapshot_total,
            touched_vertex_total,
            updates_this_round,
        )
