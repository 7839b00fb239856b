"""The explicit path dependency graph, kept as the oracle.

Preprocessing never builds the writers x readers product (see
``repro.core.dependency``); this module builds it the way preprocessing
once did — packed ``p_i * P + p_j`` keys sorted into CSR, condensed by
Tarjan, layered — and lifts it to partitions edge by edge, so the tests
can hold the implicit derivation to the explicit one array for array.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.paths import PathSet
from repro.graph.builder import first_occurrences, sorted_unique
from repro.graph.digraph import DiGraphCSR
from repro.graph.scc import condensation
from repro.kernels.segment import batch_segments
from tests.core.layout_oracle import kahn_dag_layers


def path_incidence(path_set: PathSet) -> Tuple[np.ndarray, np.ndarray]:
    """``(writes, reads)`` as ``(2, k)`` arrays of ``(vertex, path)``
    pairs sorted by vertex then path, from the path roles alone."""

    def pairs(positions):
        rows = sorted(
            {
                (v, p)
                for p, vertices in enumerate(path_set.sequences)
                for v in vertices[positions]
            }
        )
        return np.array(rows, dtype=np.int64).reshape(-1, 2).T

    # A vertex is written where it has an in-edge on the path (every
    # position but the head), read where it has an out-edge (but the
    # tail).
    return pairs(slice(1, None)), pairs(slice(None, -1))


def dependency_product(
    writes: np.ndarray, reads: np.ndarray, num_paths: int
) -> DiGraphCSR:
    """The dependency graph over paths: per vertex, every writer paired
    with every other reader; each path's successors ascending."""
    written, writer = writes
    read, reader = reads
    num_vertices = int(max(written.max(initial=-1), read.max(initial=-1))) + 1
    readers_at = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(read, minlength=num_vertices), out=readers_at[1:])
    positions, offsets = batch_segments(
        readers_at, np.diff(readers_at), written
    )
    src = np.repeat(writer, np.diff(offsets))
    dst = reader[positions]
    distinct = src != dst
    base = max(num_paths, 1)
    keys = sorted_unique(src[distinct] * base + dst[distinct])
    indptr = np.zeros(num_paths + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // base, minlength=num_paths), out=indptr[1:])
    return DiGraphCSR(indptr, keys % base)


@dataclass(frozen=True)
class ExplicitDAG:
    """What ``build_dependency_dag`` returned while it built the product."""

    dependency_graph: DiGraphCSR
    scc_of_path: np.ndarray
    dag: DiGraphCSR
    members: Tuple[Tuple[int, ...], ...]
    layer_of_scc: np.ndarray


def explicit_dependency_dag(path_set: PathSet) -> ExplicitDAG:
    """Product keys -> CSR -> ``condensation`` -> Kahn layers."""
    dependency_graph = dependency_product(
        *path_incidence(path_set), path_set.num_paths
    )
    cond = condensation(dependency_graph)
    return ExplicitDAG(
        dependency_graph=dependency_graph,
        scc_of_path=cond.labels,
        dag=cond.dag,
        members=cond.members,
        layer_of_scc=kahn_dag_layers(cond.dag),
    )


def explicit_group_edges(
    dependency_graph: DiGraphCSR, group_of_path: np.ndarray, num_groups: int
) -> List[Tuple[int, int]]:
    """The product lifted through ``group_of_path`` edge by edge: each
    cross pair once, in the order the CSR first reaches it (the order the
    partition lift once inserted them into its set)."""
    src = group_of_path[dependency_graph.edge_sources()]
    dst = group_of_path[dependency_graph.indices]
    cross = src != dst
    src, dst = src[cross], dst[cross]
    first = first_occurrences(src * num_groups + dst)
    return list(zip(src[first].tolist(), dst[first].tolist()))
