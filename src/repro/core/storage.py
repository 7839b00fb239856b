"""Path storage layout and partitions (Fig. 4, Section 3.2.1).

Four arrays represent the decomposed graph on the (simulated) GPU:

- ``E_Idx`` — per path, the vertex-index sequence along the path; two
  successive items of one path are one directed edge, so edges cost one
  index each (less space than shard-based layouts);
- ``S_val`` — the state value slot of each source occurrence (the
  *mirrors*), parallel to ``E_Idx``;
- ``E_val`` — edge values (weights), one per edge;
- ``V_val`` — the per-vertex *master* state array;
- ``PTable`` — offset of each path's first vertex in ``E_Idx``; two
  successive items delimit one path.

Paths of a partition occupy successive ``PTable``/``E_Idx`` items so a
warp's threads read consecutive global memory (coalesced accesses).
Partitions group highly-connected paths — paths of the same SCC-vertex
first, hot paths together — per Section 3.2.1's placement rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import StorageError
from repro.core.dependency import DependencyDAG, scc_vertices_by_layer
from repro.core.paths import PathSet

#: Bytes per E_Idx entry (int64 vertex index).
BYTES_PER_INDEX = 8
#: Bytes per state value (float64) — S_val, V_val entries.
BYTES_PER_STATE = 8
#: Bytes per edge value (float64).
BYTES_PER_EDGE_VALUE = 8
#: Bytes of one replica-synchronization message (vertex id + value).
BYTES_PER_MESSAGE = 16
#: Bytes of one vertex record loaded into a GPU core (index + state).
BYTES_PER_VERTEX_RECORD = BYTES_PER_INDEX + BYTES_PER_STATE


@dataclass
class Partition:
    """A set of paths transferred and synchronized as one unit."""

    partition_id: int
    path_ids: List[int]
    #: Smallest DAG layer among the partition's paths — used for
    #: layer-ordered dispatch.
    layer: int
    #: SCC-vertices whose paths appear in this partition.
    scc_vertices: Tuple[int, ...]
    num_edges: int = 0
    num_vertex_slots: int = 0

    @property
    def nbytes(self) -> int:
        """Transfer size of this partition's storage arrays."""
        return (
            self.num_vertex_slots * (BYTES_PER_INDEX + BYTES_PER_STATE)
            + self.num_edges * BYTES_PER_EDGE_VALUE
        )


class PathStorage:
    """The Fig. 4 array layout for a partitioned path decomposition."""

    def __init__(
        self,
        path_set: PathSet,
        partitions: List[Partition],
    ) -> None:
        graph = path_set.graph
        order: List[int] = []
        for partition in partitions:
            order.extend(partition.path_ids)
        if sorted(order) != list(range(path_set.num_paths)):
            raise StorageError(
                "partitions must cover every path exactly once"
            )

        self.path_set = path_set
        self.partitions = partitions
        #: Storage slot of each path (position within PTable).
        self.slot_of_path = np.empty(path_set.num_paths, dtype=np.int64)
        for slot, path_id in enumerate(order):
            self.slot_of_path[path_id] = slot

        ptable: List[int] = [0]
        e_idx: List[int] = []
        e_val: List[float] = []
        for path_id in order:
            path = path_set[path_id]
            e_idx.extend(int(v) for v in path.vertices)
            e_val.extend(
                float(graph.weights[eid]) for eid in path.edge_ids
            )
            ptable.append(len(e_idx))

        self.ptable = np.asarray(ptable, dtype=np.int64)
        self.e_idx = np.asarray(e_idx, dtype=np.int64)
        self.e_val = np.asarray(e_val, dtype=np.float64)
        #: Mirror state slots, parallel to e_idx (initialized at run start).
        self.s_val = np.zeros(self.e_idx.size, dtype=np.float64)
        #: Master state array (aliases the engine's VertexStates values).
        self.v_val = np.zeros(graph.num_vertices, dtype=np.float64)

        self._partition_of_path = np.empty(
            path_set.num_paths, dtype=np.int64
        )
        for partition in partitions:
            for path_id in partition.path_ids:
                self._partition_of_path[path_id] = partition.partition_id
            partition.num_edges = sum(
                path_set[p].num_edges for p in partition.path_ids
            )
            partition.num_vertex_slots = sum(
                path_set[p].num_vertices for p in partition.path_ids
            )

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def partition_of_path(self, path_id: int) -> int:
        return int(self._partition_of_path[path_id])

    @property
    def partition_of_paths(self) -> np.ndarray:
        """Partition id of every path, indexed by path id."""
        return self._partition_of_path

    def path_slice(self, path_id: int) -> Tuple[int, int]:
        """``(start, end)`` of the path's vertices in ``e_idx``."""
        slot = int(self.slot_of_path[path_id])
        return int(self.ptable[slot]), int(self.ptable[slot + 1])

    def path_vertices(self, path_id: int) -> np.ndarray:
        start, end = self.path_slice(path_id)
        return self.e_idx[start:end]

    def partition_bytes(self, partition_id: int) -> int:
        return self.partitions[partition_id].nbytes

    def total_bytes(self) -> int:
        return sum(p.nbytes for p in self.partitions)

    def validate(self) -> None:
        """Check the layout is consistent with the path set."""
        if self.ptable.size != self.path_set.num_paths + 1:
            raise StorageError("PTable must have one offset per path + 1")
        for path in self.path_set:
            stored = self.path_vertices(path.path_id)
            if not np.array_equal(
                stored, np.asarray(path.vertices, dtype=np.int64)
            ):
                raise StorageError(
                    f"path {path.path_id} stored out of order"
                )


def build_partitions(
    path_set: PathSet,
    dag: DependencyDAG,
    target_edges_per_partition: int = 2048,
) -> List[Partition]:
    """Group paths into partitions per Section 3.2.1's placement rules.

    Paths are laid out in DAG layer order; within a layer, by SCC-vertex
    (keeping mutually-dependent paths together); within an SCC-vertex,
    hot paths first (so hot paths share partitions and SMX residency).
    The ordered list is then cut into chunks of roughly
    ``target_edges_per_partition`` edges, never splitting inside an
    SCC-vertex unless the SCC-vertex alone exceeds the target (the giant
    SCC-vertex routinely does and spans several partitions).
    """
    if target_edges_per_partition < 1:
        raise StorageError("target_edges_per_partition must be >= 1")

    ordered_paths: List[int] = []
    scc_boundaries: List[int] = []  # indices into ordered_paths
    layer_boundaries: List[int] = []  # indices where a DAG layer ends
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
        current_edges += path_set[path_id].num_edges
        at_scc_boundary = (idx + 1) in boundary_set
        if (idx + 1) in layer_set:
            # Never mix DAG layers in one partition: same-layer
            # SCC-vertices are mutually independent, but a cross-layer
            # partition welds unrelated layers into one mutually-dependent
            # dispatch group and destroys the topological gating.
            flush()
        elif current_edges >= target_edges_per_partition and at_scc_boundary:
            flush()
        elif current_edges >= 2 * target_edges_per_partition:
            # The SCC-vertex alone exceeds the target: split it.
            flush()
    flush()

    if not partitions and path_set.num_paths:
        raise StorageError("partitioning produced no partitions")
    return partitions
