"""Flat execution tables: the loop-invariant indexing of a partition pass.

The paper's SMX walks paths out of the flat ``E_Idx`` / ``PTable``
arrays (Section 3.2.1-3.2.3). The engine's host simulation of that walk
needs the same data in the same shape: which vertices a partition's
paths visit and where each path starts, what ``Pri(p)`` is made of, which
paths a vertex sits on, who owns a vertex's activity, and which dispatch
groups gate which. All of it is a pure function of one preprocessing
result, so it is derived once per ``Preprocessed`` (see
``Preprocessed.execution_tables``) and shared read-only by every run
over it. Nothing here is ever checkpointed: a rollback restores the live
vertex arrays, and these tables cannot change underneath them.

Two levels, by what each is a function of:

- :class:`PathTables` — of ``(path_set, dag)``: what
  :class:`~repro.core.scheduling.PathScheduler` reads;
- :class:`ExecutionTables` — of the whole ``Preprocessed`` (adds the
  storage layout, the replica table and the partition-level lift): what
  the engine's partition pass and frontier selection read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro import obs
from repro.core.dependency import DependencyDAG
from repro.core.dispatch import PartitionDependencies
from repro.core.paths import PathSet
from repro.core.replicas import ReplicaTable
from repro.core.storage import PathStorage
from repro.graph.builder import first_occurrences, sorted_unique


def _split_by(
    keys: np.ndarray, values: np.ndarray, num_keys: int
) -> List[np.ndarray]:
    """``values`` grouped by ``keys``: one ascending array per key in
    ``range(num_keys)``, empty where a key has no value."""
    order = np.lexsort((values, keys))
    bounds = np.searchsorted(keys[order], np.arange(1, num_keys))
    return np.split(values[order], bounds)


@dataclass(frozen=True)
class PathTables:
    """What ``Pri(p)`` needs beyond the :class:`PathSet`'s own arrays
    (``layout`` and ``average_degrees``): each path's layer and the
    vertex -> paths incidence."""

    #: ``L(p)``: the path's DAG layer, as float for the ``Pri(p)`` term.
    layer: np.ndarray
    #: The vertex -> paths incidence as parallel arrays sorted by
    #: (vertex, path): each pair listed once however often the path
    #: revisits the vertex — what ``N(p)`` counts over.
    incidence_vertex: np.ndarray
    incidence_path: np.ndarray

    @classmethod
    def build(cls, path_set: PathSet, dag: DependencyDAG) -> "PathTables":
        layout = path_set.layout
        stride = max(path_set.num_paths, 1)
        pairs = sorted_unique(layout.vertices * stride + layout.path_of_slot)
        return cls(
            layer=dag.layer_of_scc[dag.scc_of_path].astype(np.float64),
            incidence_vertex=pairs // stride,
            incidence_path=pairs % stride,
        )


@dataclass(frozen=True)
class PartitionBlock:
    """One partition's slice of the storage arrays."""

    #: The partition's ``E_Idx`` slice: its paths' vertices end to end.
    vertices: np.ndarray
    #: Offset of each path's first vertex within :attr:`vertices`
    #: (``PTable`` rebased to the slice) — ``reduceat`` boundaries.
    starts: np.ndarray
    #: Path id of each of those paths, in storage order.
    path_ids: np.ndarray
    #: Vertices per path; a path has one edge fewer.
    lengths: np.ndarray
    #: Parallel to :attr:`vertices`: whether the slot is its vertex's
    #: first occurrence *on its path*, so ``N(p)`` — a path's distinct
    #: active vertices — is ``np.add.reduceat(active[vertices] &
    #: first_in_path, starts)``.
    first_in_path: np.ndarray


@dataclass(frozen=True)
class ExecutionTables:
    """Everything loop-invariant a run reads of its ``Preprocessed``."""

    paths: PathTables
    blocks: List[PartitionBlock]
    #: Vertex slots per partition (``Partition.num_vertex_slots``).
    partition_vertex_slots: np.ndarray
    #: Partition tracking each vertex's activity, after the layer-aware
    #: override; -1 for vertices on no path.
    owner_partition: np.ndarray
    group_of_partition: np.ndarray
    #: Whether the partition is its dispatch group's only member.
    alone_in_group: np.ndarray
    #: Per partition, its direct predecessor / successor partitions.
    partition_predecessors: List[np.ndarray]
    partition_successors: List[np.ndarray]
    #: Per dispatch group, the distinct *other* groups holding a direct
    #: predecessor of one of its partitions.
    group_predecessors: List[np.ndarray]

    @classmethod
    @obs.span
    def build(
        cls,
        path_set: PathSet,
        dag: DependencyDAG,
        storage: PathStorage,
        replicas: ReplicaTable,
        lifted: PartitionDependencies,
    ) -> "ExecutionTables":
        """Derive every table; pins ``replicas``' owners layer-aware.

        The owner override depends only on the writer weights and the
        dispatch-group layers, so it is applied here, once per
        preprocess, and read back as an array.
        """
        num_partitions = storage.num_partitions
        num_groups = len(lifted.groups)
        ptable, e_idx = storage.ptable, storage.e_idx
        path_of_slot = np.argsort(storage.slot_of_path, kind="stable")
        lengths = np.diff(ptable)
        first_in_path = np.zeros(e_idx.size, dtype=bool)
        first_in_path[
            first_occurrences(
                np.repeat(np.arange(lengths.size), lengths)
                * max(path_set.graph.num_vertices, 1)
                + e_idx
            )
        ] = True

        blocks: List[PartitionBlock] = []
        slot = 0
        for partition in storage.partitions:
            end = slot + len(partition.path_ids)
            first = ptable[slot]
            blocks.append(
                PartitionBlock(
                    vertices=e_idx[first : ptable[end]],
                    starts=ptable[slot:end] - first,
                    path_ids=path_of_slot[slot:end],
                    lengths=lengths[slot:end],
                    first_in_path=first_in_path[first : ptable[end]],
                )
            )
            slot = end

        group_of_partition = np.empty(num_partitions, dtype=np.int64)
        group_layer = np.empty(num_groups, dtype=np.int64)
        alone_in_group = np.zeros(num_partitions, dtype=bool)
        for group in lifted.groups:
            members = list(group.partition_ids)
            group_of_partition[members] = group.group_id
            group_layer[group.group_id] = group.layer
            alone_in_group[members] = len(members) == 1

        edges = np.array(sorted(lifted.edges), dtype=np.int64).reshape(-1, 2)
        src, dst = edges[:, 0], edges[:, 1]
        src_group, dst_group = group_of_partition[src], group_of_partition[dst]
        across = src_group != dst_group
        stride = max(num_groups, 1)
        group_pairs = sorted_unique(
            dst_group[across] * stride + src_group[across]
        )

        replicas.set_layer_aware_owners(group_layer[group_of_partition])
        return cls(
            paths=PathTables.build(path_set, dag),
            blocks=blocks,
            partition_vertex_slots=np.array(
                [p.num_vertex_slots for p in storage.partitions],
                dtype=np.int64,
            ),
            owner_partition=replicas.owner_partitions(),
            group_of_partition=group_of_partition,
            alone_in_group=alone_in_group,
            partition_predecessors=_split_by(dst, src, num_partitions),
            partition_successors=_split_by(src, dst, num_partitions),
            group_predecessors=_split_by(
                group_pairs // stride, group_pairs % stride, num_groups
            ),
        )
