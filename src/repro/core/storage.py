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

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import List, Tuple

import numpy as np

from repro.errors import StorageError
from repro.core.dependency import DependencyDAG, successor_path_counts
from repro.core.paths import PathSet
from repro.kernels.segment import batch_segments

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
        layout = path_set.layout
        order = np.fromiter(
            chain.from_iterable(p.path_ids for p in partitions),
            dtype=np.int64,
        )
        if not np.array_equal(np.sort(order), np.arange(path_set.num_paths)):
            raise StorageError(
                "partitions must cover every path exactly once"
            )

        self.path_set = path_set
        self.partitions = partitions
        #: Storage slot of each path (position within PTable).
        self.slot_of_path = np.empty(path_set.num_paths, dtype=np.int64)
        self.slot_of_path[order] = np.arange(order.size)

        # One gather of the flat layout in slot order: PTable is the
        # running vertex count, E_Idx / E_val the paths' vertices and
        # edge weights, path after path.
        slots, self.ptable = batch_segments(
            layout.starts, layout.lengths, order
        )
        self.e_idx = layout.vertices[slots]
        edges, _ = batch_segments(
            layout.edge_starts, layout.lengths - 1, order
        )
        self.e_val = path_set.graph.weights[layout.edge_ids[edges]].astype(
            np.float64
        )
        #: Mirror state slots, parallel to e_idx (initialized at run start).
        self.s_val = np.zeros(self.e_idx.size, dtype=np.float64)
        #: Master state array (aliases the engine's VertexStates values).
        self.v_val = np.zeros(path_set.graph.num_vertices, dtype=np.float64)

        counts = [len(p.path_ids) for p in partitions]
        self._partition_of_path = np.empty(
            path_set.num_paths, dtype=np.int64
        )
        self._partition_of_path[order] = np.repeat(
            [p.partition_id for p in partitions], counts
        )
        bounds = self.ptable[np.cumsum([0] + counts)].tolist()
        for k, partition in enumerate(partitions):
            partition.num_vertex_slots = bounds[k + 1] - bounds[k]
            partition.num_edges = partition.num_vertex_slots - counts[k]

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
    target = target_edges_per_partition
    scc = dag.scc_of_path
    layer = dag.layer_of_scc[scc]
    cold = np.ones(scc.size, dtype=bool)
    cold[np.fromiter(path_set.hot_path_ids, dtype=np.int64)] = False
    # Layer, then most downstream paths, then SCC-vertex, hot first, then
    # path id (``lexsort`` is stable).
    order = np.lexsort(
        (cold, scc, -successor_path_counts(dag)[scc], layer)
    )
    scc, layer = scc[order], layer[order]

    # The cut scan, one partition per step: a partition ends at the first
    # path that ends its layer, or ends an SCC-vertex with the partition
    # at >= target edges, or brings the partition to >= 2 * target edges
    # (the SCC-vertex alone exceeds the target: split it). Never mixing
    # DAG layers matters: same-layer SCC-vertices are mutually
    # independent, but a cross-layer partition welds unrelated layers into
    # one mutually-dependent dispatch group and destroys the topological
    # gating. ``reach[i]``: the edges of paths ``0..i`` in this order.
    reach = np.cumsum(path_set.layout.lengths[order] - 1)
    layer_ends = np.flatnonzero(np.diff(layer, append=-1)).tolist()
    scc_ends = np.flatnonzero(np.diff(scc, append=-1))
    scc_reach = reach[scc_ends].tolist()
    scc_ends, reach = scc_ends.tolist(), reach.tolist()
    path_ids, scc, layer = order.tolist(), scc.tolist(), layer.tolist()

    partitions: List[Partition] = []
    start = base = 0
    while start < len(path_ids):
        # The SCC-end search is capped at the last path, which ends the
        # last layer anyway.
        end = min(
            layer_ends[bisect_left(layer_ends, start)],
            scc_ends[
                bisect_left(scc_reach, base + target, 0, len(scc_ends) - 1)
            ],
            bisect_left(reach, base + 2 * target),
        )
        partitions.append(
            Partition(
                partition_id=len(partitions),
                path_ids=path_ids[start : end + 1],
                layer=layer[start],
                scc_vertices=tuple(sorted(set(scc[start : end + 1]))),
            )
        )
        start, base = end + 1, reach[end]
    return partitions
