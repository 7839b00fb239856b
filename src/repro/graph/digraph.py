"""Immutable CSR/CSC directed graph.

:class:`DiGraphCSR` stores a directed graph in *Compressed Sparse Row* form
for out-edges and (lazily) *Compressed Sparse Column* form for in-edges.
Edge weights are kept in an array parallel to the CSR adjacency array so the
GAS programs (PageRank, adsorption, SSSP, k-core) can read them without
indirection.

The class is deliberately immutable: engines, partitioners, and the
simulated GPU machine all share one graph object, and preprocessing
artifacts (paths, dependency DAG, storage arrays) index into it by position.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError


class DiGraphCSR:
    """A directed graph with ``n`` vertices in CSR (out) and CSC (in) form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; out-edges of vertex ``v`` are
        ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int64`` array of destination vertices, one per edge.
    weights:
        optional ``float64`` array parallel to ``indices``. Defaults to all
        ones, which is what the unweighted benchmarks use.

    Notes
    -----
    Edges are identified by their position in ``indices`` (the *edge id*),
    which the path storage layout of Section 3.2.1 relies on.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphError("indptr and indices must be one-dimensional")
        if indptr.size == 0:
            raise GraphError("indptr must have at least one entry")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise GraphError(
                "indptr must start at 0 and end at len(indices)="
                f"{indices.size}, got [{indptr[0]}, {indptr[-1]}]"
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise GraphError("edge destination out of range")

        if weights is None:
            weights = np.ones(indices.size, dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != indices.shape:
                raise GraphError("weights must be parallel to indices")

        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)
        self._weights.setflags(write=False)

        # Lazily-built CSC (in-edge) view and degree caches.
        self._csc: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._out_degree = np.diff(indptr)
        self._out_degree.setflags(write=False)
        self._in_degree: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m``."""
        return self._indices.size

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array (read-only)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR destination array (read-only)."""
        return self._indices

    @property
    def weights(self) -> np.ndarray:
        """Edge weight array parallel to :attr:`indices` (read-only)."""
        return self._weights

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def successors(self, v: int) -> np.ndarray:
        """Destinations of out-edges of ``v``."""
        self._check_vertex(v)
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def out_edge_ids(self, v: int) -> range:
        """Edge ids of ``v``'s out-edges (positions in :attr:`indices`)."""
        self._check_vertex(v)
        return range(int(self._indptr[v]), int(self._indptr[v + 1]))

    def out_weights(self, v: int) -> np.ndarray:
        """Weights of ``v``'s out-edges, parallel to :meth:`successors`."""
        self._check_vertex(v)
        return self._weights[self._indptr[v] : self._indptr[v + 1]]

    def predecessors(self, v: int) -> np.ndarray:
        """Sources of in-edges of ``v`` (built lazily from the CSC view)."""
        self._check_vertex(v)
        indptr, indices, _ = self._ensure_csc()
        return indices[indptr[v] : indptr[v + 1]]

    def in_weights(self, v: int) -> np.ndarray:
        """Weights of ``v``'s in-edges, parallel to :meth:`predecessors`."""
        self._check_vertex(v)
        indptr, _, weights = self._ensure_csc()
        return weights[indptr[v] : indptr[v + 1]]

    def out_degree(self, v: Optional[int] = None):
        """Out-degree of ``v``, or the full out-degree array if ``v is None``."""
        if v is None:
            return self._out_degree
        self._check_vertex(v)
        return int(self._out_degree[v])

    def in_degree(self, v: Optional[int] = None):
        """In-degree of ``v``, or the full in-degree array if ``v is None``."""
        if self._in_degree is None:
            counts = np.bincount(self._indices, minlength=self.num_vertices)
            self._in_degree = counts.astype(np.int64)
            self._in_degree.setflags(write=False)
        if v is None:
            return self._in_degree
        self._check_vertex(v)
        return int(self._in_degree[v])

    def degree(self, v: Optional[int] = None):
        """Total (in + out) degree."""
        if v is None:
            return self.out_degree() + self.in_degree()
        return self.out_degree(v) + self.in_degree(v)

    def edge_endpoints(self, edge_id: int) -> Tuple[int, int]:
        """Return ``(src, dst)`` for a CSR edge id."""
        if not 0 <= edge_id < self.num_edges:
            raise GraphError(f"edge id {edge_id} out of range")
        src = int(np.searchsorted(self._indptr, edge_id, side="right") - 1)
        return src, int(self._indices[edge_id])

    def edge_sources(self) -> np.ndarray:
        """Array of source vertices, one per edge id."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self._out_degree
        )

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(src, dst, weight)`` triples in edge-id order."""
        for v in range(self.num_vertices):
            for eid in self.out_edge_ids(v):
                yield v, int(self._indices[eid]), float(self._weights[eid])

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether a directed edge ``src -> dst`` exists."""
        return dst in self.successors(src)

    def csc_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The in-edge (CSC) view as ``(indptr, sources, weights)``.

        Read-only arrays; in-edges of ``v`` are
        ``sources[indptr[v]:indptr[v + 1]]`` in edge-id order, the same
        order :meth:`predecessors` yields. The batch kernels index these
        directly instead of slicing per vertex.
        """
        return self._ensure_csc()

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "DiGraphCSR":
        """Return the graph with all edge directions flipped."""
        indptr, indices, weights = self._ensure_csc()
        return DiGraphCSR(indptr.copy(), indices.copy(), weights.copy())

    def subgraph_vertices(self, vertices: Sequence[int]) -> "DiGraphCSR":
        """Induced subgraph on ``vertices``, relabelled to ``0..k-1``.

        The ids are deduplicated and taken in ascending order: the
        ``i``-th smallest distinct id becomes vertex ``i``, whatever order
        ``vertices`` lists them in. Each kept vertex's surviving out-edges
        stay in CSR order.
        """
        ids = np.asarray(vertices, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_vertices):
            raise GraphError("subgraph vertex out of range")
        remap = np.full(self.num_vertices, -1, dtype=np.int64)
        remap[ids] = 0
        kept = np.flatnonzero(remap == 0)
        remap[kept] = np.arange(kept.size)
        eids, counts = self.out_edge_slices(kept)
        dsts = remap[self._indices[eids]]
        inside = dsts >= 0
        rows = np.repeat(np.arange(kept.size), counts)[inside]
        indptr = np.zeros(kept.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=kept.size), out=indptr[1:])
        return DiGraphCSR(indptr, dsts[inside], self._weights[eids[inside]])

    def out_edge_slices(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(edge ids, counts)``: the out-edge ids of each of
        ``vertices`` (an int64 array, repeats allowed), slice after slice,
        and how many each contributes."""
        starts = self._indptr[vertices]
        counts = self._indptr[vertices + 1] - starts
        slots = np.repeat(starts - (counts.cumsum() - counts), counts)
        return slots + np.arange(slots.size), counts

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def _ensure_csc(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._csc is None:
            n = self.num_vertices
            counts = np.bincount(self._indices, minlength=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            # Stable sort by destination keeps in-edges of each vertex in
            # edge-id order, matching the cursor-based CSC construction.
            order = np.argsort(self._indices, kind="stable")
            indices = self.edge_sources()[order]
            weights = self._weights[order]
            indptr.setflags(write=False)
            indices.setflags(write=False)
            weights.setflags(write=False)
            self._csc = (indptr, indices, weights)
        return self._csc

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise GraphError(
                f"vertex {v} out of range for graph with "
                f"{self.num_vertices} vertices"
            )

    def __repr__(self) -> str:
        return (
            f"DiGraphCSR(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraphCSR):
            return NotImplemented
        return (
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and np.array_equal(self._weights, other._weights)
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.num_edges))
