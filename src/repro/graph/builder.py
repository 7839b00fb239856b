"""Build :class:`~repro.graph.digraph.DiGraphCSR` objects from edge lists.

:class:`GraphBuilder` is the mutable staging area; :func:`from_edges` is the
one-shot convenience used throughout the tests and examples.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraphCSR

Edge = Union[Tuple[int, int], Tuple[int, int, float]]


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending.

    What ``np.unique(keys)`` returns, by sort-and-compare: NumPy >= 2.3
    routes the plain call through a hash table that is ~30x slower than
    one sort on the million-key arrays the dependency graph packs
    (measured 0.66 s against 0.02 s).
    """
    keys = np.sort(keys, axis=None)
    distinct = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    return keys[distinct]


def first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each distinct key:
    ``keys[first_occurrences(keys)]`` is ``keys`` with later repeats
    dropped and the order of what remains kept."""
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return first


class GraphBuilder:
    """Accumulates directed edges and finalizes them into a CSR graph.

    Parameters
    ----------
    num_vertices:
        Fixed vertex count, or ``None`` to infer ``max endpoint + 1``.
    deduplicate:
        Collapse parallel edges, keeping the first weight seen.
    """

    def __init__(
        self, num_vertices: Optional[int] = None, deduplicate: bool = False
    ) -> None:
        if num_vertices is not None and num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        self._num_vertices = num_vertices
        self._deduplicate = deduplicate
        #: Staged edges in insertion order: array chunks, then the scalar
        #: edges added since the last chunk (folded into a chunk lazily).
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._srcs: List[int] = []
        self._dsts: List[int] = []
        self._wts: List[float] = []
        self._staged = 0

    def add_edge(self, src: int, dst: int, weight: float = 1.0) -> "GraphBuilder":
        """Add one directed edge ``src -> dst``; returns self for chaining."""
        if src < 0 or dst < 0:
            raise GraphError("vertex ids must be non-negative")
        if self._num_vertices is not None and (
            src >= self._num_vertices or dst >= self._num_vertices
        ):
            raise GraphError(
                f"edge ({src}, {dst}) outside fixed vertex count "
                f"{self._num_vertices}"
            )
        self._srcs.append(int(src))
        self._dsts.append(int(dst))
        self._wts.append(float(weight))
        self._staged += 1
        return self

    def add_edges(self, edges: Iterable[Edge]) -> "GraphBuilder":
        """Add many edges; each is ``(src, dst)`` or ``(src, dst, weight)``."""
        for edge in edges:
            if len(edge) == 2:
                self.add_edge(edge[0], edge[1])
            elif len(edge) == 3:
                self.add_edge(edge[0], edge[1], edge[2])
            else:
                raise GraphError(f"malformed edge tuple of length {len(edge)}")
        return self

    def add_edge_arrays(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weight: Optional[np.ndarray] = None,
    ) -> "GraphBuilder":
        """Add one chunk of edges from parallel arrays (vectorized checks).

        The chunked counterpart of :meth:`add_edge` — the streaming I/O
        path (:func:`repro.graph.io.iter_edge_list_chunks`) and the
        sharded-store adapters feed edges through here so a large edge
        list is validated per chunk instead of per Python call.
        """
        # Copies: a chunk reader may refill its buffers after this call.
        src = np.array(src, dtype=np.int64)
        dst = np.array(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphError(
                f"edge arrays must be parallel 1-D arrays, got "
                f"{src.shape} and {dst.shape}"
            )
        if weight is None:
            wts = np.ones(src.size, dtype=np.float64)
        else:
            wts = np.array(weight, dtype=np.float64)
            if wts.shape != src.shape:
                raise GraphError(
                    f"weight array shape {wts.shape} does not match "
                    f"edge arrays {src.shape}"
                )
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise GraphError("vertex ids must be non-negative")
        if self._num_vertices is not None and src.size:
            hi = max(int(src.max()), int(dst.max()))
            if hi >= self._num_vertices:
                raise GraphError(
                    f"edge endpoint {hi} outside fixed vertex count "
                    f"{self._num_vertices}"
                )
        self._flush_scalars()
        self._chunks.append((src, dst, wts))
        self._staged += src.size
        return self

    def _flush_scalars(self) -> None:
        """Fold the scalar edges staged so far into one array chunk."""
        if self._srcs:
            self._chunks.append(
                (
                    np.asarray(self._srcs, dtype=np.int64),
                    np.asarray(self._dsts, dtype=np.int64),
                    np.asarray(self._wts, dtype=np.float64),
                )
            )
            self._srcs, self._dsts, self._wts = [], [], []

    @property
    def num_staged_edges(self) -> int:
        """Number of edges added so far (before deduplication)."""
        return self._staged

    def build(self) -> DiGraphCSR:
        """Finalize into an immutable :class:`DiGraphCSR`.

        Out-edges of each vertex appear in insertion order, which keeps
        edge ids deterministic for a given edge sequence.
        """
        self._flush_scalars()
        if self._chunks:
            srcs, dsts, wts = (
                np.concatenate(column) for column in zip(*self._chunks)
            )
        else:
            srcs = dsts = np.empty(0, dtype=np.int64)
            wts = np.empty(0, dtype=np.float64)

        if self._num_vertices is not None:
            n = self._num_vertices
        else:
            n = int(max(srcs.max(initial=-1), dsts.max(initial=-1)) + 1)

        if self._deduplicate and srcs.size:
            # First occurrence of each (src, dst) wins, in insertion order.
            keep = first_occurrences(srcs * n + dsts)
            srcs, dsts, wts = srcs[keep], dsts[keep], wts[keep]

        order = np.argsort(srcs, kind="stable")
        srcs, dsts, wts = srcs[order], dsts[order], wts[order]
        counts = np.bincount(srcs, minlength=n) if srcs.size else np.zeros(n, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return DiGraphCSR(indptr, dsts, wts)


def from_edges(
    edges: Sequence[Edge],
    num_vertices: Optional[int] = None,
    deduplicate: bool = False,
) -> DiGraphCSR:
    """Build a graph from an edge sequence in one call."""
    return (
        GraphBuilder(num_vertices=num_vertices, deduplicate=deduplicate)
        .add_edges(edges)
        .build()
    )
