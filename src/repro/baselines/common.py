"""Shared pieces of the vertex-centric baseline engines.

Both baselines shard vertices into contiguous ranges balanced by edge
count (the standard 1-D partitioning Gunrock and Groute use), assign them
round-robin to GPUs, and load whole partitions when any of their vertices
is active — the low loaded-data utilization the paper measures in Fig. 13.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.results import RoundRecord
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraphCSR
from repro.gpu.machine import Machine
from repro.model.rounds import checkpoint_manager
from repro.model.state import VertexStates
from repro.core.partitioning import CPU_SECONDS_PER_EDGE
from repro.core.storage import (
    BYTES_PER_EDGE_VALUE,
    BYTES_PER_INDEX,
    BYTES_PER_STATE,
)


#: Default partition count when sizing adaptively: enough partitions for
#: dependency structure (DiGraph) and per-GPU parallelism (baselines) to be
#: visible on scaled-down graphs, matching the paper's many-partitions-per-
#: GPU regime.
DEFAULT_PARTITION_COUNT = 64


def resolve_partition_target(
    graph: DiGraphCSR, target_edges_per_partition: Optional[int]
) -> int:
    """Resolve an adaptive partition size: ``None`` means aim for
    :data:`DEFAULT_PARTITION_COUNT` partitions (minimum 32 edges each)."""
    if target_edges_per_partition is not None:
        if target_edges_per_partition < 1:
            raise ConfigurationError(
                "target_edges_per_partition must be >= 1"
            )
        return target_edges_per_partition
    return max(32, graph.num_edges // DEFAULT_PARTITION_COUNT)


@dataclass(frozen=True)
class VertexRangePartition:
    """A contiguous vertex range [lo, hi) owned by one GPU."""

    partition_id: int
    lo: int
    hi: int
    gpu: int
    num_edges: int

    @property
    def num_vertices(self) -> int:
        return self.hi - self.lo

    @property
    def nbytes(self) -> int:
        """CSR slice size: offsets + destinations + weights + states."""
        return (
            self.num_vertices * (BYTES_PER_INDEX + BYTES_PER_STATE)
            + self.num_edges * (BYTES_PER_INDEX + BYTES_PER_EDGE_VALUE)
        )

    def __contains__(self, v: int) -> bool:
        return self.lo <= v < self.hi


def vertex_range_partitions(
    graph: DiGraphCSR,
    num_gpus: int,
    target_edges_per_partition: int = 2048,
) -> List[VertexRangePartition]:
    """Cut the vertex range into edge-balanced partitions, round-robin
    assigned to GPUs."""
    if num_gpus < 1:
        raise ConfigurationError("num_gpus must be >= 1")
    if target_edges_per_partition < 1:
        raise ConfigurationError("target_edges_per_partition must be >= 1")
    partitions: List[VertexRangePartition] = []
    n = graph.num_vertices
    lo = 0
    edges = 0
    degrees = graph.out_degree()
    for v in range(n):
        edges += int(degrees[v])
        last = v == n - 1
        if edges >= target_edges_per_partition or last:
            pid = len(partitions)
            partitions.append(
                VertexRangePartition(
                    partition_id=pid,
                    lo=lo,
                    hi=v + 1,
                    gpu=pid % num_gpus,
                    num_edges=edges,
                )
            )
            lo = v + 1
            edges = 0
    if not partitions:
        partitions.append(
            VertexRangePartition(
                partition_id=0, lo=0, hi=n, gpu=0, num_edges=graph.num_edges
            )
        )
    return partitions


class BaselineFaultHarness:
    """Run object of a range-partitioned baseline (see
    :mod:`repro.model.rounds` for the driver it is handed to).

    The baselines have far simpler state than the DiGraph engine — two
    vertex arrays plus the partition->GPU placement — so one harness
    covers both: the shared setup (machine, 1-D sharding, initial
    distribution, vertex states and the vertex -> partition / GPU
    lookup arrays), the duck-typed client of
    :class:`~repro.faults.checkpoint.CheckpointManager`, and the
    redistribution rule a GPU death takes.
    Each engine subclasses it with its own ``run_round``.

    Every cross-GPU push goes through :meth:`deliver_batches`, with or
    without a fault plan or recovery policy, and the engine's schedule
    picks its cost channel (barriered for bulk-sync, overlapped for
    async), so arming recovery changes a fault-free run only by its
    checkpoints.
    """

    #: The engine's constant in the preprocessing-time model (see
    #: :func:`modeled_baseline_preprocess_seconds`).
    preprocess_overhead = 1.0

    def __init__(
        self,
        engine,
        graph: DiGraphCSR,
        program,
        fault_injector,
        recovery,
    ) -> None:
        config = engine.config
        self.machine = machine = Machine(
            engine.spec, fault_injector=fault_injector, recovery=recovery
        )
        machine.stats.preprocess_time_s = modeled_baseline_preprocess_seconds(
            graph, self.preprocess_overhead, n_workers=config.n_workers
        )
        self.partitions = vertex_range_partitions(
            graph,
            machine.num_gpus,
            resolve_partition_target(
                graph, config.target_edges_per_partition
            ),
        )
        # Initial distribution of the graph to the GPUs.
        for partition in self.partitions:
            machine.batched_transfer_to_gpu(partition.gpu, partition.nbytes)
        #: Partition id per vertex (the ranges never move) and GPU per
        #: vertex (recovery may re-place partitions mid-run:
        #: :meth:`_refresh_placement`).
        self.pid_of_vertex = np.repeat(
            np.arange(len(self.partitions), dtype=np.int64),
            [p.num_vertices for p in self.partitions],
        )
        self._refresh_placement()
        self.graph = graph
        self.program = program
        self.states = VertexStates(graph, program)
        self.round_records: List[RoundRecord] = []
        #: Set by the round driver (ConvergenceError diagnostics).
        self.last_max_delta = 0.0
        self.checkpoints = checkpoint_manager(machine, self)

    # ------------------------------------------------------------------
    # CheckpointManager client protocol
    # ------------------------------------------------------------------
    def vertex_arrays(self) -> Dict[str, np.ndarray]:
        return {
            "values": self.states.values,
            "active": self.states.active,
        }

    def _refresh_placement(self) -> None:
        """Rebuild ``gpu_of_vertex`` from the partitions' GPUs."""
        self.gpu_of_vertex = np.array(
            [p.gpu for p in self.partitions], dtype=np.int64
        )[self.pid_of_vertex]

    def vertex_gpu(self) -> np.ndarray:
        return self.gpu_of_vertex

    def capture_scalars(self) -> Dict:
        return {
            "partition_gpu": [p.gpu for p in self.partitions],
            "num_round_records": len(self.round_records),
        }

    def restore_scalars(self, scalars: Dict) -> None:
        for i, gpu in enumerate(scalars["partition_gpu"]):
            if self.partitions[i].gpu != gpu:
                self.partitions[i] = replace(self.partitions[i], gpu=gpu)
        self._refresh_placement()
        del self.round_records[scalars["num_round_records"] :]

    # ------------------------------------------------------------------
    # round-driver hooks (``run_round`` comes from the engine subclass)
    # ------------------------------------------------------------------
    def prologue(self) -> None:
        """Nothing runs before round 0: vertices without edges are
        ordinary frontier members here."""

    def redistribute(self, dead_gpus: Sequence[int]) -> List[int]:
        """Re-place dead GPUs' partitions on the least-loaded survivors
        by edge count (there is no dependency structure to keep local in
        a 1-D vertex-range sharding). The dead GPU's memory is gone: the
        survivor re-loads each partition from the host copy."""
        live = self.machine.live_gpu_ids()
        load = {g: 0 for g in live}
        for partition in self.partitions:
            if partition.gpu in load:
                load[partition.gpu] += partition.num_edges
        moved: List[int] = []
        for i, partition in enumerate(self.partitions):
            if partition.gpu not in dead_gpus:
                continue
            target = min(live, key=lambda g: (load[g], g))
            self.partitions[i] = replace(partition, gpu=target)
            load[target] += partition.num_edges
            self.machine.batched_transfer_to_gpu(target, partition.nbytes)
            moved.append(partition.nbytes)
        self._refresh_placement()
        return moved

    def deliver_batches(
        self,
        batch_bytes: Dict[Tuple[int, int], int],
        sources: Dict[Tuple[int, int], Sequence[int]],
        activations: Dict[Tuple[int, int], Sequence[int]],
        barrier: bool = False,
    ) -> None:
        """Push each GPU pair's batch of ``batch_bytes[pair]`` replica
        bytes, in the dict's order. A batch that lands activates the
        pair's remote dependents (``activations[pair]``); a dropped one
        loses them; a corrupted one also overwrites the states it carried
        (``sources[pair]``) with its poison. ``barrier`` is the engine's
        schedule (:meth:`Machine.deliver_replica_batch`)."""
        states = self.states
        for (src_gpu, dst_gpu), nbytes in batch_bytes.items():
            outcome = self.machine.deliver_replica_batch(
                src_gpu, dst_gpu, nbytes, barrier=barrier
            )
            if outcome.status == "dropped":
                continue
            if outcome.status == "corrupted" and outcome.poison is not None:
                states.values[sources[src_gpu, dst_gpu]] = outcome.poison
            states.active[activations[src_gpu, dst_gpu]] = True

    def invariant_checks(self) -> List:
        return []

    def extras(self) -> Dict[str, float]:
        return {"num_partitions": float(len(self.partitions))}

    def record_round(
        self,
        round_index: int,
        processed: int,
        active: int,
        touched_vertices: int,
        updates: int,
    ) -> None:
        """Append the round's Fig. 2 observation: ``active`` vertices
        over the ``touched_vertices`` of the ``processed`` partitions."""
        self.round_records.append(
            RoundRecord(
                round_index=round_index,
                partitions_processed=processed,
                partitions_convergent=len(self.partitions) - processed,
                active_fraction_nonconvergent=(
                    active / touched_vertices if touched_vertices else 0.0
                ),
                vertex_updates=updates,
            )
        )


def modeled_baseline_preprocess_seconds(
    graph: DiGraphCSR, overhead_factor: float, n_workers: int = 1
) -> float:
    """Preprocessing-time model for the baselines (Fig. 8's denominator).

    One pass over the edges times an engine-specific constant:
    ``1.0`` for the bulk-synchronous engine (plain CSR sharding), ``1.04``
    for the async engine (worklist setup and ring registration) — the
    paper measures Groute slightly above Gunrock and DiGraph above both.
    """
    return (
        CPU_SECONDS_PER_EDGE
        * overhead_factor
        * graph.num_edges
        / max(n_workers, 1)
    )
