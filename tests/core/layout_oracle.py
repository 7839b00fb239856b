"""The preprocessing layout as per-path and per-slot loops, kept as the oracle.

Preprocessing derives the Fig. 4 layout — DAG layers, the partition
order and cuts, the ``PTable`` / ``E_Idx`` / ``E_val`` arrays, mirror
partitions, writer weights and owners — in array passes over one flat
path layout (``PathSet.layout``). This module keeps the loops those
passes replaced, line for line where they were loops already, so the
tests can hold the array forms to them array for array:

- :func:`kahn_dag_layers` — a Kahn order, then relax every edge;
- :func:`scc_vertices_by_layer` / :func:`build_partitions` — per-SCC
  successor sums, per-layer sorts and the per-path cut scan;
- :func:`loop_storage` — ``PathStorage`` filled path by path;
- :class:`LoopReplicaTable` — mirrors and writer weights counted slot by
  slot in dicts, owners chosen vertex by vertex;
- :func:`replication_factor` — the per-vertex mean over first
  occurrences.
"""

from types import SimpleNamespace
from typing import Dict, List, Tuple

import numpy as np

from repro.core.dependency import DependencyDAG
from repro.core.paths import PathSet
from repro.core.storage import Partition
from repro.errors import StorageError
from repro.graph.digraph import DiGraphCSR
from repro.graph.traversal import topological_order


def kahn_dag_layers(graph: DiGraphCSR) -> np.ndarray:
    """``layer(v) = 1 + max(layer(pred))`` by relaxing every out-edge in
    a Kahn topological order; raises ``GraphError`` on a cycle."""
    order = topological_order(graph)
    layers = np.zeros(graph.num_vertices, dtype=np.int64)
    for v in order:
        for u in graph.successors(int(v)):
            if layers[u] < layers[v] + 1:
                layers[u] = layers[v] + 1
    return layers


def scc_vertices_by_layer(dag: DependencyDAG) -> List[List[int]]:
    """SCC-vertex ids grouped by layer, ascending; within a layer by
    descending total path count of their successors, then id."""
    layers: Dict[int, List[int]] = {}
    for scc in range(dag.num_scc_vertices):
        layers.setdefault(int(dag.layer_of_scc[scc]), []).append(scc)

    def successor_path_count(scc: int) -> int:
        return sum(
            len(dag.members[int(succ)]) for succ in dag.scc_successors(scc)
        )

    result = []
    for layer in sorted(layers):
        members = layers[layer]
        members.sort(key=lambda s: (-successor_path_count(s), s))
        result.append(members)
    return result


def build_partitions(
    path_set: PathSet,
    dag: DependencyDAG,
    target_edges_per_partition: int = 2048,
) -> List[Partition]:
    """Paths in layer / SCC / hot-first order, cut path by path."""
    if target_edges_per_partition < 1:
        raise StorageError("target_edges_per_partition must be >= 1")

    ordered_paths: List[int] = []
    scc_boundaries: List[int] = []
    layer_boundaries: List[int] = []
    for layer_members in scc_vertices_by_layer(dag):
        for scc in layer_members:
            member_paths = sorted(
                dag.members[scc],
                key=lambda p: (not path_set.is_hot(p), p),
            )
            ordered_paths.extend(member_paths)
            scc_boundaries.append(len(ordered_paths))
        layer_boundaries.append(len(ordered_paths))

    partitions: List[Partition] = []
    current: List[int] = []
    current_edges = 0

    def flush() -> None:
        nonlocal current, current_edges
        if not current:
            return
        layers = [dag.layer_of_path(p) for p in current]
        sccs = sorted({int(dag.scc_of_path[p]) for p in current})
        partitions.append(
            Partition(
                partition_id=len(partitions),
                path_ids=current,
                layer=min(layers),
                scc_vertices=tuple(sccs),
            )
        )
        current = []
        current_edges = 0

    boundary_set = set(scc_boundaries)
    layer_set = set(layer_boundaries)
    for idx, path_id in enumerate(ordered_paths):
        current.append(path_id)
        current_edges += len(path_set.sequences[path_id]) - 1
        at_scc_boundary = (idx + 1) in boundary_set
        if (idx + 1) in layer_set:
            flush()
        elif current_edges >= target_edges_per_partition and at_scc_boundary:
            flush()
        elif current_edges >= 2 * target_edges_per_partition:
            flush()
    flush()

    if not partitions and path_set.num_paths:
        raise StorageError("partitioning produced no partitions")
    return partitions


def loop_storage(
    path_set: PathSet, partitions: List[Partition]
) -> SimpleNamespace:
    """``PathStorage``'s arrays and per-partition sizes, path by path
    (the partitions are read, not written)."""
    graph = path_set.graph
    order: List[int] = []
    for partition in partitions:
        order.extend(partition.path_ids)
    if sorted(order) != list(range(path_set.num_paths)):
        raise StorageError("partitions must cover every path exactly once")

    slot_of_path = np.empty(path_set.num_paths, dtype=np.int64)
    for slot, path_id in enumerate(order):
        slot_of_path[path_id] = slot

    ptable: List[int] = [0]
    e_idx: List[int] = []
    e_val: List[float] = []
    for path_id in order:
        e_idx.extend(path_set.sequences[path_id])
        e_val.extend(
            float(graph.weights[eid]) for eid in path_set.edges_of(path_id)
        )
        ptable.append(len(e_idx))

    partition_of_path = np.empty(path_set.num_paths, dtype=np.int64)
    num_edges, num_vertex_slots = [], []
    for partition in partitions:
        for path_id in partition.path_ids:
            partition_of_path[path_id] = partition.partition_id
        num_edges.append(
            sum(len(path_set.edges_of(p)) for p in partition.path_ids)
        )
        num_vertex_slots.append(
            sum(len(path_set.sequences[p]) for p in partition.path_ids)
        )
    return SimpleNamespace(
        slot_of_path=slot_of_path,
        ptable=np.asarray(ptable, dtype=np.int64),
        e_idx=np.asarray(e_idx, dtype=np.int64),
        e_val=np.asarray(e_val, dtype=np.float64),
        partition_of_paths=partition_of_path,
        num_edges=num_edges,
        num_vertex_slots=num_vertex_slots,
    )


class LoopReplicaTable:
    """Mirror partitions, writer weights and owners from dicts filled
    slot by slot; the proxy set is not rebuilt (it reads no path)."""

    def __init__(self, path_set: PathSet, partition_of_paths: np.ndarray):
        partitions_of_vertex: Dict[int, set] = {}
        writer_weight: Dict[Tuple[int, int], int] = {}
        for path_id, vertices in enumerate(path_set.sequences):
            partition = int(partition_of_paths[path_id])
            for position, v in enumerate(vertices):
                partitions_of_vertex.setdefault(v, set()).add(partition)
                if position > 0:
                    key = (v, partition)
                    writer_weight[key] = writer_weight.get(key, 0) + 1
        self.mirror_partitions: Dict[int, Tuple[int, ...]] = {
            v: tuple(sorted(parts))
            for v, parts in partitions_of_vertex.items()
        }
        self.writer_weight = writer_weight
        # Most writer occurrences, first (lowest) partition on a tie.
        self.owner_partition: Dict[int, int] = {}
        for v, parts in self.mirror_partitions.items():
            best = parts[0]
            best_weight = writer_weight.get((v, best), 0)
            for pid in parts[1:]:
                weight = writer_weight.get((v, pid), 0)
                if weight > best_weight:
                    best, best_weight = pid, weight
            self.owner_partition[v] = best

    def writer_partitions(self, v: int) -> Dict[int, int]:
        return {
            pid: self.writer_weight[(v, pid)]
            for pid in self.mirror_partitions.get(v, ())
            if (v, pid) in self.writer_weight
        }

    def set_layer_aware_owners(self, partition_layer: np.ndarray) -> None:
        """Per writer vertex: highest layer, then most writer
        occurrences, then lowest partition id."""
        owners = {}
        for v in self.mirror_partitions:
            writers = self.writer_partitions(v)
            if writers:
                owners[v] = max(
                    writers,
                    key=lambda pid: (
                        int(partition_layer[pid]), writers[pid], -pid
                    ),
                )
        self.owner_partition.update(owners)

    def replica_count(self, v: int) -> int:
        return len(self.mirror_partitions.get(v, ()))


def replication_factor(table, path_set: PathSet) -> float:
    """Mean ``table.replica_count`` over the vertices on some path, in
    first-occurrence order."""
    counts: List[int] = []
    seen = set()
    for vertices in path_set.sequences:
        for v in vertices:
            if v not in seen:
                seen.add(v)
                counts.append(table.replica_count(v))
    if not counts:
        return 0.0
    return float(np.mean(counts))
