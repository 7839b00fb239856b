"""Execution adapters over the sharded store: lazy shards, full rebuild.

:class:`ShardedGraph` is what the rest of the system touches when a
graph lives on disk:

- :meth:`~ShardedGraph.materialize` rebuilds the exact in-RAM
  :class:`~repro.graph.digraph.DiGraphCSR` the original edge stream
  would have produced — **bit-identical** arrays, any partition policy —
  by scattering each shard's rows into their original CSR positions.
  This is what ``repro run --graph-dir`` feeds the engines, and what
  the ``storage_scaling`` experiment certifies against the in-RAM path.
- :meth:`~ShardedGraph.iter_edge_chunks` streams the store's edges in
  bounded chunks (shard at a time through the cache) — the re-iterable
  source ``repro resume --gpus N`` uses to re-partition a store for a
  different machine without materializing it.
- :meth:`~ShardedGraph.decompose_paths` runs DiGraph's path
  decomposition shard at a time: each part becomes a local graph of its
  owned vertices plus a zero-out-degree halo (the cut destinations), so
  walks stop at part boundaries and only one shard's working set is
  resident at a time.

:func:`memory_bound_selftest` is the CI gate's probe: it certifies the
shard-cache bound holds under eviction — and that *disabling* the cache
(``max_resident_bytes=None``) breaks it, proving the bound is
load-bearing rather than vacuously true.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import StorageError
from repro.graph.digraph import DiGraphCSR
from repro.graph.io import DEFAULT_CHUNK_EDGES, EdgeChunk
from repro.storage.memory import ResidentTracker
from repro.storage.store import Shard, ShardStore


class ShardedGraph:
    """A graph that lives in a sharded store, opened shard at a time."""

    def __init__(
        self,
        root: str,
        max_resident_bytes: Optional[int] = None,
        use_mmap: bool = True,
        tracker: Optional[ResidentTracker] = None,
    ) -> None:
        self.tracker = tracker if tracker is not None else ResidentTracker()
        self.store = ShardStore(
            root,
            max_resident_bytes=max_resident_bytes,
            use_mmap=use_mmap,
            tracker=self.tracker,
        )

    # ------------------------------------------------------------------
    # passthrough
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.store.num_vertices

    @property
    def num_edges(self) -> int:
        return self.store.num_edges

    @property
    def num_parts(self) -> int:
        return self.store.num_parts

    @property
    def peak_resident_bytes(self) -> int:
        """Modeled high-water resident bytes of everything this adapter
        (and its shard cache) has held so far."""
        return self.tracker.peak_bytes

    def scan(self) -> Dict[str, int]:
        """Checksum-verify every page through the bounded cache."""
        return self.store.scan()

    # ------------------------------------------------------------------
    # full reconstruction (bit-identical)
    # ------------------------------------------------------------------
    def materialize(self) -> DiGraphCSR:
        """Rebuild the original in-RAM CSR graph, bit for bit.

        Each shard holds its owned vertices' rows with global ids in the
        original within-row order, so reconstruction is a scatter: the
        global ``indptr`` comes from the per-vertex degrees, and every
        shard row lands at exactly the edge positions the in-RAM
        :class:`~repro.graph.builder.GraphBuilder` gave it. No sort, no
        policy dependence — the arrays match the in-RAM path bit for bit
        (``storage_scaling`` certifies this on overlap sizes).
        """
        n, m = self.num_vertices, self.num_edges
        degrees = np.zeros(n, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices = np.empty(m, dtype=np.int64)
        weights = np.empty(m, dtype=np.float64)
        out_bytes = degrees.nbytes + indptr.nbytes + indices.nbytes + weights.nbytes
        self.tracker.acquire(out_bytes, "materialized-graph")

        for part in range(self.num_parts):
            shard = self.store.load_shard(part)
            degrees[shard.vertex_ids] = np.diff(shard.indptr)
        np.cumsum(degrees, out=indptr[1:])

        for part in range(self.num_parts):
            shard = self.store.load_shard(part)
            pos = self._global_positions(shard, indptr)
            indices[pos] = shard.indices
            weights[pos] = shard.weights

        self.tracker.release(out_bytes, "materialized-graph")
        return DiGraphCSR(indptr, indices, weights)

    @staticmethod
    def _global_positions(shard: Shard, indptr: np.ndarray) -> np.ndarray:
        """Global CSR edge positions of one shard's edges, in shard order."""
        row_lengths = np.diff(shard.indptr)
        local_row = np.repeat(
            np.arange(shard.num_vertices, dtype=np.int64), row_lengths
        )
        within = np.arange(shard.num_edges, dtype=np.int64) - shard.indptr[
            local_row
        ]
        return indptr[shard.vertex_ids[local_row]] + within

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def iter_edge_chunks(
        self, chunk_edges: int = DEFAULT_CHUNK_EDGES
    ) -> Iterator[EdgeChunk]:
        """Stream every edge as bounded ``(src, dst, weight)`` chunks.

        Shard at a time through the cache; within a shard, rows stream
        in owned-vertex order with the original within-row edge order —
        a stable re-sort by source reproduces the original graph, so
        this is a valid input stream for
        :func:`repro.storage.partition.partition_graph` (re-sharding a
        store for a different machine stays bit-identical).
        """
        if chunk_edges < 1:
            raise StorageError(
                f"chunk_edges must be >= 1, got {chunk_edges}"
            )
        for part in range(self.num_parts):
            shard = self.store.load_shard(part)
            row_lengths = np.diff(shard.indptr)
            sources = np.repeat(shard.vertex_ids, row_lengths)
            for lo in range(0, shard.num_edges, chunk_edges):
                hi = min(lo + chunk_edges, shard.num_edges)
                yield (
                    sources[lo:hi].astype(np.int64, copy=False),
                    np.asarray(
                        shard.indices[lo:hi], dtype=np.int64
                    ),
                    np.asarray(
                        shard.weights[lo:hi], dtype=np.float64
                    ),
                )

    def edge_chunk_source(self, chunk_edges: int = DEFAULT_CHUNK_EDGES):
        """Re-iterable chunk source over the store (for re-partitioning)."""

        def chunks() -> Iterator[EdgeChunk]:
            return self.iter_edge_chunks(chunk_edges=chunk_edges)

        return chunks

    # ------------------------------------------------------------------
    # shard-at-a-time path decomposition
    # ------------------------------------------------------------------
    def decompose_paths(self, **kwargs) -> Dict[str, object]:
        """Path-decompose the graph one shard at a time.

        Each part becomes a local graph of its owned vertices plus a
        *halo* of cut destinations with zero out-degree, so DFS walks
        end at part boundaries naturally and only one shard's local
        graph is resident at once. Local path vertices are mapped back
        to global ids before the local graph is dropped.

        Keyword arguments are forwarded to
        :func:`repro.core.partitioning.decompose_into_paths` (``d_max``,
        ``merge_short_paths``, ...).

        Returns a summary dict: ``paths`` (list of global-id vertex
        tuples), ``num_paths``, ``per_part`` path counts,
        ``average_length`` (edges per path), and ``cut_edges`` — every
        edge is covered exactly once because each edge belongs to
        exactly one source shard.
        """
        from repro.core.partitioning import decompose_into_paths

        all_paths: List[Tuple[int, ...]] = []
        per_part: List[int] = []
        total_edges = 0
        for part in range(self.num_parts):
            shard = self.store.load_shard(part)
            local_graph, local_to_global = self._local_graph(shard)
            with self.tracker.hold(
                local_graph.indptr.nbytes
                + local_graph.indices.nbytes
                + local_graph.weights.nbytes,
                "local-graph",
            ):
                if local_graph.num_edges == 0:
                    per_part.append(0)
                    continue
                layout = decompose_into_paths(local_graph, **kwargs).layout
                all_paths.extend(
                    layout.per_path(local_to_global[layout.vertices])
                )
                total_edges += layout.edge_ids.size
                per_part.append(layout.lengths.size)
        return {
            "paths": all_paths,
            "num_paths": len(all_paths),
            "per_part": per_part,
            "covered_edges": total_edges,
            "average_length": (
                total_edges / len(all_paths) if all_paths else 0.0
            ),
        }

    def _local_graph(
        self, shard: Shard
    ) -> Tuple[DiGraphCSR, np.ndarray]:
        """One shard as a local graph: owned rows + zero-degree halo."""
        halo = np.setdiff1d(
            np.unique(np.asarray(shard.indices)), shard.vertex_ids
        )
        local_to_global = np.concatenate([shard.vertex_ids, halo])
        order = np.argsort(local_to_global, kind="stable")
        sorted_ids = local_to_global[order]
        pos = np.searchsorted(sorted_ids, np.asarray(shard.indices))
        local_indices = order[pos] if pos.size else pos.astype(np.int64)
        local_indptr = np.concatenate(
            [
                np.asarray(shard.indptr, dtype=np.int64),
                np.full(halo.size, shard.num_edges, dtype=np.int64),
            ]
        )
        graph = DiGraphCSR(
            local_indptr,
            np.ascontiguousarray(local_indices, dtype=np.int64),
            np.asarray(shard.weights, dtype=np.float64).copy(),
        )
        return graph, local_to_global


def memory_bound_selftest(
    root: str,
    max_resident_bytes: int,
    disable_cache: bool = False,
) -> Dict[str, object]:
    """Probe whether the shard-cache bound actually bounds a full scan.

    Scans every shard of the store at ``root`` through a cache bounded
    by ``max_resident_bytes`` (or unbounded when ``disable_cache`` —
    the configuration that MUST fail for the bound to mean anything;
    CI runs both and asserts ``ok`` then ``not ok``).

    ``ok`` is true iff the peak cached-shard bytes never exceeded the
    bound plus one shard's slack (the most recently used shard is
    always kept, so a single oversized shard is tolerated by design —
    that slack is exactly ``largest_shard_bytes``).
    """
    graph = ShardedGraph(
        root,
        max_resident_bytes=None if disable_cache else max_resident_bytes,
    )
    stats = graph.scan()
    largest = 0
    for entry in graph.store.manifest["parts"]:
        shard_bytes = sum(
            int(page["raw_bytes"]) for page in entry["pages"].values()
        )
        largest = max(largest, shard_bytes)
    peak = graph.tracker.peak_bytes
    allowed = int(max_resident_bytes) + largest
    return {
        "bound_bytes": int(max_resident_bytes),
        "largest_shard_bytes": int(largest),
        "allowed_peak_bytes": allowed,
        "peak_resident_bytes": int(peak),
        "cache_disabled": bool(disable_cache),
        "shard_loads": stats["shard_loads"],
        "shard_evictions": stats["shard_evictions"],
        "ok": peak <= allowed,
    }
