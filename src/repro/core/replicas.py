"""Vertex replicas: masters, mirrors, proxy vertices, message batching.

Section 3.2.2: a vertex replicated across paths has one *master* (its
``V_val`` slot) and *mirrors* (its ``S_val`` occurrences). Mirrors push new
states to the master; other mirrors pull from it. Two cost problems and the
paper's fixes, both modeled here:

- **Write contention** — many threads atomically updating one hot master.
  Fix: a *proxy vertex* in each SMX's shared memory accumulates the local
  mirrors' pushes; only the accumulated result hits the master. We count
  an ``atomic`` per master write and credit ``proxy_absorbed`` for writes
  a proxy soaked up.
- **Interleaved messages** — replica-update messages scattered across
  destination partitions force repeated partition loads. Fix: after a
  partition is processed, messages are grouped by destination partition
  and sent in batches; we count messages, batches, and bytes, and the
  dispatcher charges one transfer per batch instead of per message.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StorageError
from repro.core.paths import PathSet
from repro.core.storage import PathStorage
from repro.graph.builder import sorted_unique


@dataclass(frozen=True)
class ContentionOutcome:
    """Master write contention of one partition processing pass."""

    atomic_updates: int     #: atomic writes that reached masters
    proxy_absorbed: int     #: writes absorbed by shared-memory proxies
    total_writes: int       #: all master writes of the pass (conserved:
                            #: ``atomic_updates + proxy_absorbed``)


class ReplicaTable:
    """Replica locations and proxy-vertex selection for a path layout.

    Parameters
    ----------
    proxy_in_degree_threshold:
        Vertices with in-degree at or above this get a proxy slot,
        capacity permitting (the paper proxies "each vertex with high
        in-degree").
    proxy_capacity:
        Maximum proxy slots per SMX, derived from shared-memory size by
        the caller (``shared_bytes // slot_bytes``).
    """

    def __init__(
        self,
        path_set: PathSet,
        storage: PathStorage,
        proxy_in_degree_threshold: int = 8,
        proxy_capacity: int = 4096,
    ) -> None:
        if proxy_in_degree_threshold < 1:
            raise StorageError("proxy threshold must be >= 1")
        if proxy_capacity < 0:
            raise StorageError("proxy capacity must be >= 0")
        self._storage = storage
        #: Proxy-selection parameters, kept for introspection (the
        #: conformance checkers re-derive the proxy set from these).
        self.proxy_in_degree_threshold = proxy_in_degree_threshold
        self.proxy_capacity = proxy_capacity
        graph = path_set.graph
        num_vertices = graph.num_vertices

        # The distinct (vertex, partition) pairs of the layout — the
        # mirrors — sorted by vertex, then partition, and per pair how
        # many *writer* occurrences (non-head positions, where the vertex
        # receives in-path updates) its partition holds.
        layout = path_set.layout
        self._stride = max(storage.num_partitions, 1)
        keys = (
            layout.vertices * self._stride
            + storage.partition_of_paths[layout.path_of_slot]
        )
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        distinct = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        writer = np.ones(keys.size, dtype=bool)
        writer[layout.starts] = False
        pair = np.cumsum(distinct) - 1  # of each slot, in sorted order
        keys = keys[distinct]
        self._mirror_vertex = keys // self._stride
        self._mirror_partition = keys % self._stride
        self._writer_weight = np.bincount(
            pair[writer[order]], minlength=keys.size
        )
        #: ``_mirror_vertex`` is sorted: vertex v's pairs are the slice
        #: ``_mirror_start[v]:_mirror_start[v + 1]``.
        self._mirror_start = np.searchsorted(
            self._mirror_vertex, np.arange(num_vertices + 1)
        )
        # Default owner: the partition with the most writer occurrences
        # (its gather inputs land there), the lowest such on a tie — so
        # the first partition holding the vertex at all for head-only
        # vertices. The engine refines this with dispatch-group layers
        # (see :meth:`set_layer_aware_owners`): activity of a vertex must
        # be tracked where its *final* value is computed, or upstream
        # groups flicker active forever and block the dependency frontier.
        # Owners are -1 for vertices on no path.
        self._owner_partition = np.full(num_vertices, -1, dtype=np.int64)
        best = np.lexsort((-self._writer_weight, self._mirror_vertex))
        first = best[self._mirror_start[:-1][np.diff(self._mirror_start) > 0]]
        self._owner_partition[self._mirror_vertex[first]] = (
            self._mirror_partition[first]
        )

        # Proxy vertices: hottest in-degrees first, up to capacity.
        in_degrees = graph.in_degree()
        hot = np.flatnonzero(in_degrees >= proxy_in_degree_threshold)
        hot = hot[np.argsort(-in_degrees[hot], kind="stable")]
        self._proxied = frozenset(int(v) for v in hot[:proxy_capacity])

    def writer_partitions(self, v: int) -> Dict[int, int]:
        """Partitions where ``v`` receives in-path updates -> occurrence
        count."""
        if not 0 <= v < self._owner_partition.size:
            return {}
        pairs = slice(self._mirror_start[v], self._mirror_start[v + 1])
        return {
            pid: weight
            for pid, weight in zip(
                self._mirror_partition[pairs].tolist(),
                self._writer_weight[pairs].tolist(),
            )
            if weight
        }

    def set_layer_aware_owners(self, partition_layer: np.ndarray) -> None:
        """Pin each vertex's activity to its downstream-most writer.

        Among the partitions where a vertex receives in-path updates, the
        one whose dispatch group has the highest layer
        (``partition_layer[pid]``) computes the vertex's final value;
        ties go to the most writer occurrences, then the lowest id.
        Tracking activity anywhere earlier would keep upstream groups
        flagged active while a downstream SCC iterates, permanently
        blocking the dependency frontier.
        """
        writes = self._writer_weight > 0
        vertex = self._mirror_vertex[writes]
        pid = self._mirror_partition[writes]
        weight = self._writer_weight[writes]
        # Ascending by (vertex, layer, weight, -pid): a vertex's best
        # writer is the last entry of its run.
        order = np.lexsort((-pid, weight, partition_layer[pid], vertex))
        vertex, pid = vertex[order], pid[order]
        best = np.ones(vertex.size, dtype=bool)
        np.not_equal(vertex[1:], vertex[:-1], out=best[:-1])
        self._owner_partition[vertex[best]] = pid[best]

    def owner_partitions(self) -> np.ndarray:
        """:meth:`owner_partition` of every vertex; -1 where isolated."""
        return self._owner_partition.copy()

    # ------------------------------------------------------------------
    def mirror_partitions(self, v: int) -> Tuple[int, ...]:
        """Partitions holding a replica of ``v`` (empty if isolated)."""
        slices = self._mirror_slices
        return slices[v] if 0 <= v < len(slices) else ()

    def replica_count(self, v: int) -> int:
        """Number of partitions carrying ``v``."""
        return len(self.mirror_partitions(v))

    def owner_partition(self, v: int) -> Optional[int]:
        """Partition tracking ``v``'s activity (None if ``v`` is isolated)."""
        if not 0 <= v < self._owner_partition.size:
            return None
        owner = int(self._owner_partition[v])
        return None if owner < 0 else owner

    def has_proxy(self, v: int) -> bool:
        """Whether ``v`` gets a shared-memory proxy accumulator."""
        return v in self._proxied

    @property
    def num_proxied(self) -> int:
        return len(self._proxied)

    @property
    def proxied_vertices(self) -> frozenset:
        """The proxy-vertex set (introspection for the checkers)."""
        return self._proxied

    def replicated_vertices(self) -> Tuple[int, ...]:
        """All vertices holding at least one replica, ascending."""
        mirrors = self._mirror_slices
        return tuple(v for v, parts in enumerate(mirrors) if parts)

    # ------------------------------------------------------------------
    @cached_property
    def _mirror_slices(self) -> List[Tuple[int, ...]]:
        """:meth:`mirror_partitions` of every vertex, by vertex id: views
        of the sorted pairs as tuples."""
        pids = self._mirror_partition.tolist()
        bounds = self._mirror_start.tolist()
        return [tuple(pids[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    def messages_per_destination(
        self, partition_id: int, changed_vertices: Iterable[int]
    ) -> np.ndarray:
        """Replica-update messages per partition for a pass's changed
        vertices: one per changed vertex and mirror partition other
        than ``partition_id`` (whose count is zero)."""
        counts = np.bincount(
            np.fromiter(
                chain.from_iterable(
                    map(self._mirror_slices.__getitem__, changed_vertices)
                ),
                dtype=np.int64,
            ),
            minlength=self._storage.num_partitions,
        )
        if 0 <= partition_id < counts.size:
            counts[partition_id] = 0
        return counts

    def payload_by_destination(
        self, partition_id: int, changed_vertices: Iterable[int]
    ) -> Dict[int, Tuple[int, ...]]:
        """The vertices each remote destination receives in the batch.

        The vertex-level view of :meth:`messages_per_destination`: for every
        remote mirror partition, the (sorted) changed vertices with a
        replica there — i.e. the modeled message payload. Fault injection
        uses this to know *which* master states a corrupted batch would
        garble.
        """
        per_destination: Dict[int, List[int]] = {}
        for v in changed_vertices:
            v = int(v)
            for dest in self.mirror_partitions(v):
                if dest != partition_id:
                    per_destination.setdefault(dest, []).append(v)
        return {
            dest: tuple(sorted(vs))
            for dest, vs in per_destination.items()
        }

    def contention(self, writes: Sequence[int]) -> ContentionOutcome:
        """Atomic-vs-proxy accounting for one partition pass.

        ``writes`` holds the vertex of every master write produced while
        processing the partition (a vertex once per write). A proxied
        vertex folds all its local writes into one atomic push at pass
        end; an unproxied vertex pays one atomic per write.
        """
        proxied = self._proxied
        hot = sum(map(proxied.__contains__, writes))
        folded = len(proxied.intersection(writes))
        return ContentionOutcome(
            atomic_updates=len(writes) - hot + folded,
            proxy_absorbed=hot - folded,
            total_writes=len(writes),
        )


def replication_factor(table: ReplicaTable, path_set: PathSet) -> float:
    """Mean replicas per vertex that occurs on at least one path: its
    (vertex, partition) pairs counted per vertex."""
    on_path = sorted_unique(path_set.layout.vertices)
    if not on_path.size:
        return 0.0
    return float(np.mean(np.diff(table._mirror_start)[on_path]))
