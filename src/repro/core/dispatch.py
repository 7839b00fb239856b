"""Dependency-aware path dispatching for multiple GPUs (Section 3.2.2).

Partitions (the transfer/sync unit) inherit the path DAG's structure: a
partition-level dependency graph is contracted into **dispatch groups**
(partitions that are mutually dependent — the giant SCC-vertex's
partitions typically form one big group) and layered. Execution proceeds
layer by layer: a group is *schedulable* once every predecessor group has
converged, so its partitions are processed with all upstream inputs final
— most are handled exactly once.

The dispatcher also owns the multi-GPU placement policies of the paper:

- **home GPU assignment** — a partition lands on the GPU already holding
  the most of its direct precursors (cheap access to their buffered
  results), with a load-balance penalty;
- **batched, prefetched transfer** — partition arrays move host->GPU in
  `S_b`-sized batches on Hyper-Q streams; the next group's partitions are
  prefetched behind the current group's compute;
- **capacity eviction** — when a GPU's global memory fills, the resident
  partition whose SCC-vertices have the fewest *active direct successors*
  is swapped out first (written back to the host);
- **work stealing** — an idle GPU steals queued partitions from the most
  loaded GPU, paying the ring-transfer cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, GPULostError
from repro.graph.builder import GraphBuilder
from repro.graph.scc import condensation
from repro.graph.traversal import dag_layers
from repro.gpu.machine import Machine
from repro.core.dependency import DependencyDAG, lift_edges
from repro.core.storage import PathStorage

#: GPU-loss redistribution: keep each dependency-connected cluster of
#: the dead GPU's partitions co-resident on one survivor, chosen by
#: inter-group edge cut (dependency edges to partitions already there).
REDISTRIBUTE_LOCALITY = "locality"
#: GPU-loss redistribution: spread the dead GPU's partitions to the
#: least-loaded survivors one by one, balancing by edge count.
REDISTRIBUTE_EDGE_BALANCE = "edge-balance"
REDISTRIBUTION_POLICIES = (
    REDISTRIBUTE_LOCALITY,
    REDISTRIBUTE_EDGE_BALANCE,
)


@dataclass(frozen=True)
class DispatchGroup:
    """A set of mutually-dependent partitions scheduled as one unit."""

    group_id: int
    partition_ids: Tuple[int, ...]
    layer: int


@dataclass(frozen=True)
class PartitionDependencies:
    """The path dependency graph lifted to partitions, and its layered
    dispatch groups — a pure function of ``(storage, dag)``, shared
    read-only by every :class:`Dispatcher` built over them."""

    edges: Set[Tuple[int, int]]
    groups: List[DispatchGroup]


@obs.span
def lift_to_partitions(
    storage: PathStorage, dag: DependencyDAG
) -> PartitionDependencies:
    """Lift path dependency edges to the partition level and group them."""
    edges = _partition_dependency_edges(storage, dag)
    return PartitionDependencies(
        edges=edges, groups=_build_groups(storage.num_partitions, edges)
    )


class Dispatcher:
    """Layer-ordered partition dispatch over the simulated machine."""

    def __init__(
        self,
        storage: PathStorage,
        dag: DependencyDAG,
        machine: Machine,
        prefetch: bool = True,
        affinity_weight: float = 2.0,
        partition_dependencies: Optional[PartitionDependencies] = None,
    ) -> None:
        """``partition_dependencies`` is ``lift_to_partitions(storage,
        dag)`` when the caller already holds it
        (``Preprocessed.partition_dependencies`` lifts once for every
        run over one preprocess)."""
        self._storage = storage
        self._dag = dag
        self._machine = machine
        self._prefetch = prefetch
        #: Locality-vs-balance knob for home-GPU placement: how many mean
        #: partition sizes of load imbalance one precursor's locality is
        #: worth (the ablation bench sweeps this).
        self.affinity_weight = affinity_weight

        if partition_dependencies is None:
            partition_dependencies = lift_to_partitions(storage, dag)
        self._partition_deps = partition_dependencies.edges
        self.groups = partition_dependencies.groups
        self._group_of_partition = np.empty(
            storage.num_partitions, dtype=np.int64
        )
        for group in self.groups:
            for pid in group.partition_ids:
                self._group_of_partition[pid] = group.group_id

        # Partition-level successor lists (for eviction policy).
        self._successors: Dict[int, List[int]] = {}
        self._predecessors: Dict[int, List[int]] = {}
        for a, b in self._partition_deps:
            self._successors.setdefault(a, []).append(b)
            self._predecessors.setdefault(b, []).append(a)

        self.home_gpu = self._assign_home_gpus()
        #: Runtime location (stealing may move a partition off its home).
        self.current_gpu = dict(self.home_gpu)
        self.steal_count = 0

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def group_of_partition(self, partition_id: int) -> int:
        return int(self._group_of_partition[partition_id])

    def partition_successors(self, partition_id: int) -> Sequence[int]:
        return self._successors.get(partition_id, ())

    def partition_predecessors(self, partition_id: int) -> Sequence[int]:
        return self._predecessors.get(partition_id, ())

    def groups_in_layer_order(self) -> List[DispatchGroup]:
        """Groups ordered by (layer, descending downstream partition
        count) — the paper's same-layer tie-break, which unlocks the most
        successor work first."""
        def downstream(group: DispatchGroup) -> int:
            return sum(
                len(self._successors.get(pid, ()))
                for pid in group.partition_ids
            )

        return sorted(
            self.groups, key=lambda g: (g.layer, -downstream(g), g.group_id)
        )

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _assign_home_gpus(self) -> Dict[int, int]:
        """Static placement: balanced load first, precursor locality second.

        The paper sends each SCC-vertex's paths "to the GPU with the most
        number of its direct precursors" for cheap access to their
        buffered results — but the giant SCC-vertex explicitly spans
        "SMXs of multiple GPUs", so locality is a *bounded bonus* on top
        of edge-balanced placement, never allowed to collapse the whole
        graph onto one GPU.
        """
        num_gpus = self._machine.num_gpus
        load = [0] * num_gpus  # assigned edges per GPU
        partitions = self._storage.partitions
        mean_edges = max(
            1.0, sum(p.num_edges for p in partitions) / max(len(partitions), 1)
        )
        placement: Dict[int, int] = {}
        for group in self.groups_in_layer_order():
            for pid in group.partition_ids:
                precursor_counts = [0] * num_gpus
                for pred in self._predecessors.get(pid, ()):
                    if pred in placement:
                        precursor_counts[placement[pred]] += 1
                best_gpu = 0
                best_score = float("inf")
                for gpu in range(num_gpus):
                    affinity_bonus = (
                        self.affinity_weight
                        * mean_edges
                        * min(precursor_counts[gpu], 3)
                    )
                    score = load[gpu] - affinity_bonus
                    if score < best_score:
                        best_score = score
                        best_gpu = gpu
                placement[pid] = best_gpu
                load[best_gpu] += partitions[pid].num_edges
        return placement

    # ------------------------------------------------------------------
    # residency / transfer
    # ------------------------------------------------------------------
    def ensure_resident(
        self,
        partition_id: int,
        active_successors: Callable[[int], int],
        overlap: bool = False,
    ) -> float:
        """Make a partition resident on its current GPU.

        Charges a batched host->GPU transfer if absent, evicting the
        resident partitions with the fewest active direct successors
        first (their results are written back to the host). With
        ``overlap`` the transfer is queued on the GPU's streams
        (prefetch) instead of charged immediately.
        """
        gpu_id = self.current_gpu[partition_id]
        gpu = self._machine.gpus[gpu_id]
        nbytes = self._storage.partition_bytes(partition_id)
        if gpu.global_memory.is_resident(partition_id):
            return 0.0

        def evict_order(candidates: List[int]) -> List[int]:
            return sorted(
                candidates, key=lambda pid: (active_successors(pid), pid)
            )

        evicted = gpu.global_memory.allocate(
            partition_id, nbytes, evict_order=evict_order
        )
        time_s = 0.0
        for victim in evicted:
            # Written back to the host (its results may still be needed).
            victim_bytes = self._storage.partition_bytes(victim)
            time_s += self._machine.transfer(gpu_id, "host", victim_bytes)
        if overlap and self._prefetch:
            transfer_s = self._machine.interconnect.batched_transfer(
                "host",
                gpu_id,
                nbytes,
                self._machine.spec.transfer_batch_bytes,
            )
            gpu.streams.queue_transfer(transfer_s)
        else:
            time_s += self._machine.batched_transfer_to_gpu(gpu_id, nbytes)
        return time_s

    # ------------------------------------------------------------------
    # work stealing
    # ------------------------------------------------------------------
    def balance_assignments(
        self, runnable_partitions: Sequence[int]
    ) -> Dict[int, List[int]]:
        """Distribute runnable partitions over GPUs, stealing for balance.

        Partitions start on their current GPU; while some GPU is idle and
        another holds more than one runnable partition, the idle GPU
        steals from the most loaded one (preferring the smallest
        partition — suspended path subsets move cheaply). Steals charge
        the ring-transfer of the partition's arrays.
        """
        per_gpu: Dict[int, List[int]] = {
            gpu: [] for gpu in self._machine.live_gpu_ids()
        }
        for pid in runnable_partitions:
            gpu = self.current_gpu[pid]
            if gpu not in per_gpu:
                raise GPULostError(
                    f"partition {pid} is placed on dead GPU {gpu}",
                    gpu_id=gpu,
                )
            per_gpu[gpu].append(pid)

        def load(gpu: int) -> int:
            return sum(
                self._storage.partitions[p].num_edges for p in per_gpu[gpu]
            )

        while True:
            idle = [g for g in per_gpu if not per_gpu[g]]
            donors = sorted(
                (g for g in per_gpu if len(per_gpu[g]) > 1),
                key=load,
                reverse=True,
            )
            if not idle or not donors:
                break
            thief, donor = idle[0], donors[0]
            victim = min(
                per_gpu[donor],
                key=lambda p: self._storage.partitions[p].num_edges,
            )
            per_gpu[donor].remove(victim)
            per_gpu[thief].append(victim)
            nbytes = self._storage.partition_bytes(victim)
            self._machine.transfer(donor, thief, nbytes)
            self.current_gpu[victim] = thief
            self.steal_count += 1
        return {g: pids for g, pids in per_gpu.items() if pids}

    # ------------------------------------------------------------------
    # graceful degradation
    # ------------------------------------------------------------------
    def redistribute_dead_gpu(
        self, dead_gpu: int, policy: str = REDISTRIBUTE_EDGE_BALANCE
    ) -> List[int]:
        """Reassign a dead GPU's partitions across the survivors.

        Two placement policies:

        - :data:`REDISTRIBUTE_EDGE_BALANCE` walks dispatch groups in
          layer order (preserving the paper's scheduling structure) and
          moves each dead-resident partition to the least-loaded
          survivor, balancing by edge count;
        - :data:`REDISTRIBUTE_LOCALITY` first clusters the dead GPU's
          partitions by dependency connectivity (a cluster is a set of
          partitions linked through the path-dependency edges — an
          iterating SCC's dispatch group always stays whole) and lands
          each cluster *entirely* on the survivor with the largest
          inter-group edge cut to its resident partitions, so replica
          sync inside and around the moved work stays on-GPU instead of
          crossing the ring every wave; load breaks ties.

        Both ``current_gpu`` and ``home_gpu`` are updated — the dead GPU
        is gone for good. The partitions' arrays are re-loaded from the
        host lazily by :meth:`ensure_resident` (the dead GPU's memory
        was lost, nothing can be copied out of it).

        Returns the reassigned partition ids in assignment order.
        """
        if policy not in REDISTRIBUTION_POLICIES:
            raise ConfigurationError(
                f"redistribution policy must be one of "
                f"{REDISTRIBUTION_POLICIES}, got {policy!r}"
            )
        live = self._machine.live_gpu_ids()
        if not live:
            raise GPULostError(
                "no surviving GPUs to redistribute onto", gpu_id=dead_gpu
            )
        load: Dict[int, int] = {g: 0 for g in live}
        for pid, gpu in self.current_gpu.items():
            if gpu in load:
                load[gpu] += self._storage.partitions[pid].num_edges
        if policy == REDISTRIBUTE_LOCALITY:
            return self._redistribute_locality(dead_gpu, live, load)
        moved: List[int] = []
        for group in self.groups_in_layer_order():
            for pid in group.partition_ids:
                if self.current_gpu[pid] != dead_gpu:
                    continue
                target = min(live, key=lambda g: (load[g], g))
                self.current_gpu[pid] = target
                self.home_gpu[pid] = target
                load[target] += self._storage.partitions[pid].num_edges
                moved.append(pid)
        return moved

    def _redistribute_locality(
        self, dead_gpu: int, live: List[int], load: Dict[int, int]
    ) -> List[int]:
        """Cluster-at-a-time placement maximizing dependency locality."""
        dead_pids = sorted(
            pid
            for pid, gpu in self.current_gpu.items()
            if gpu == dead_gpu
        )
        if not dead_pids:
            return []
        # Union-find over dependency edges restricted to the dead set:
        # mutually-dependent partitions (one dispatch group) and
        # producer->consumer chains stranded together move together.
        parent = {pid: pid for pid in dead_pids}

        def find(pid: int) -> int:
            while parent[pid] != pid:
                parent[pid] = parent[parent[pid]]
                pid = parent[pid]
            return pid

        for a, b in sorted(self._partition_deps):
            if a in parent and b in parent:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        clusters: Dict[int, List[int]] = {}
        for pid in dead_pids:
            clusters.setdefault(find(pid), []).append(pid)

        partitions = self._storage.partitions
        layer_of = {
            pid: self.groups[self.group_of_partition(pid)].layer
            for pid in dead_pids
        }

        def cluster_key(item: Tuple[int, List[int]]) -> Tuple:
            _, pids = item
            return (
                min(layer_of[p] for p in pids),
                -sum(partitions[p].num_edges for p in pids),
                pids[0],
            )

        moved: List[int] = []
        for _, pids in sorted(clusters.items(), key=cluster_key):
            members = set(pids)
            affinity: Dict[int, int] = {g: 0 for g in live}
            for a, b in self._partition_deps:
                if (a in members) == (b in members):
                    continue
                outside = b if a in members else a
                gpu = self.current_gpu[outside]
                if gpu in affinity:
                    affinity[gpu] += 1
            target = max(
                live, key=lambda g: (affinity[g], -load[g], -g)
            )
            for pid in pids:
                self.current_gpu[pid] = target
                self.home_gpu[pid] = target
                load[target] += partitions[pid].num_edges
                moved.append(pid)
        return moved


# ----------------------------------------------------------------------
# construction helpers
# ----------------------------------------------------------------------
def _partition_dependency_edges(
    storage: PathStorage, dag: DependencyDAG
) -> Set[Tuple[int, int]]:
    """Lift path dependency edges to the partition level.

    The pairs enter the set in the order the dependency graph's edges
    (``p_i`` ascending, then ``p_j``) first reach them. That fixes the
    set's iteration order, which fixes the order of
    :meth:`Dispatcher.partition_successors` and with it the order in
    which prefetched transfer times are summed — modeled time is only
    bit-stable across versions if this order is.
    """
    group_of, num_groups = storage.partition_of_paths, storage.num_partitions
    src, dst = lift_edges(dag.writes, dag.reads, group_of, num_groups)
    return set(zip(src.tolist(), dst.tolist()))


def _build_groups(
    num_partitions: int, edges: Set[Tuple[int, int]]
) -> List[DispatchGroup]:
    """Contract partition-level cycles into layered dispatch groups."""
    if num_partitions == 0:
        # Edge-less graphs decompose into zero paths; the engine still
        # handles their isolated vertices, so an empty schedule is valid.
        return []
    src, dst = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2).T
    cond = condensation(
        GraphBuilder(num_vertices=num_partitions)
        .add_edge_arrays(src, dst)
        .build()
    )
    layers = dag_layers(cond.dag)
    return [
        DispatchGroup(
            group_id=group_id,
            partition_ids=tuple(cond.members[group_id]),
            layer=int(layers[group_id]),
        )
        for group_id in range(cond.num_components)
    ]
