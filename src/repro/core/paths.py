"""Directed paths — the basic parallel processing unit of DiGraph.

A path is an ordered sequence of connected directed edges (Section 3.1):
vertices ``v_0 .. v_k`` and the CSR edge ids of ``v_0->v_1, ...,
v_{k-1}->v_k``. A :class:`PathSet` is a disjoint decomposition of a
graph's edges into such paths: every edge belongs to exactly one path,
paths may share only vertices (ideally only their endpoints — the
constraint the partitioner maintains for less reprocessing cost).

A path set holds its paths in one flat :class:`PathLayout`, end to end
in path-id order (Fig. 4's ``E_Idx``); a path's id is its position
there, and every per-path read is a view of the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PartitioningError
from repro.graph.digraph import DiGraphCSR


@dataclass(frozen=True)
class PathLayout:
    """Every path of a :class:`PathSet` end to end, in path-id order —
    the one form of the decomposition every stage reads."""

    #: Vertex sequences, concatenated.
    vertices: np.ndarray
    #: Edge ids, concatenated (a path has one fewer than vertices).
    edge_ids: np.ndarray
    #: Vertices per path, and the position of each path's first vertex
    #: in :attr:`vertices` (``reduceat`` boundaries).
    lengths: np.ndarray
    starts: np.ndarray

    def __post_init__(self) -> None:
        # Every stage reads these arrays, none may write them.
        for array in (self.vertices, self.edge_ids, self.lengths, self.starts):
            array.setflags(write=False)

    @property
    def path_of_slot(self) -> np.ndarray:
        """The path id of every entry of :attr:`vertices`."""
        return np.repeat(np.arange(self.lengths.size), self.lengths)

    @property
    def edge_starts(self) -> np.ndarray:
        """The position of each path's first edge in :attr:`edge_ids`."""
        return self.starts - np.arange(self.starts.size)

    def per_path(self, per_slot: np.ndarray) -> Tuple[Tuple[int, ...], ...]:
        """An array parallel to :attr:`vertices`, cut into one tuple of
        Python ints per path."""
        flat = per_slot.tolist()
        bounds = np.append(self.starts, len(flat)).tolist()
        return tuple(
            tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        )


@dataclass
class PathSet:
    """A disjoint decomposition of a graph's edges into directed paths."""

    graph: DiGraphCSR
    layout: PathLayout
    #: Path ids classified as hot (built by the partitioner from average
    #: vertex degree; hot paths are the fast tracks of Section 3.2.1).
    hot_path_ids: frozenset = field(default_factory=frozenset)
    #: Depth bound the decomposition was built with (Algorithm 1's
    #: ``D_MAX``); ``None`` for hand-assembled path sets. The merge pass
    #: honors the same bound, so every path has at most ``d_max`` edges —
    #: the invariant :mod:`repro.verify` checks.
    d_max: Optional[int] = None

    @classmethod
    def from_sequences(
        cls,
        graph: DiGraphCSR,
        vertex_seqs: Sequence[Sequence[int]],
        edge_seqs: Sequence[Sequence[int]],
        hot_path_ids: Iterable[int] = frozenset(),
        d_max: Optional[int] = None,
    ) -> "PathSet":
        """The path set whose path ``i`` visits ``vertex_seqs[i]`` over
        the edges ``edge_seqs[i]``.

        Only the shape is checked here — every path has at least one edge
        and one edge fewer than vertices. Whether the paths trace real
        edges and cover the graph once is :meth:`validate`'s question.
        """
        count = len(vertex_seqs)
        if len(edge_seqs) != count:
            raise PartitioningError(
                f"{count} vertex sequences but {len(edge_seqs)} edge "
                f"sequences"
            )
        lengths = np.fromiter(map(len, vertex_seqs), np.int64, count=count)
        edges = np.fromiter(map(len, edge_seqs), np.int64, count=count)
        if (lengths < 2).any():
            raise PartitioningError("a path needs at least one edge")
        if (edges != lengths - 1).any():
            raise PartitioningError(
                "edge count must be one less than vertex count"
            )
        total = int(lengths.sum())
        layout = PathLayout(
            vertices=np.fromiter(
                chain.from_iterable(vertex_seqs), dtype=np.int64, count=total
            ),
            edge_ids=np.fromiter(
                chain.from_iterable(edge_seqs),
                dtype=np.int64,
                count=total - count,
            ),
            lengths=lengths,
            starts=np.cumsum(lengths) - lengths,
        )
        return cls(graph, layout, frozenset(hot_path_ids), d_max)

    def __len__(self) -> int:
        return self.num_paths

    @property
    def num_paths(self) -> int:
        return int(self.layout.lengths.size)

    # ------------------------------------------------------------------
    # per-path views of the layout
    # ------------------------------------------------------------------
    @cached_property
    def sequences(self) -> Tuple[Tuple[int, ...], ...]:
        """Each path's vertices as a tuple of Python ints — what the
        engine's walk iterates."""
        return self.layout.per_path(self.layout.vertices)

    def edges_of(self, path_id: int) -> np.ndarray:
        """Path ``path_id``'s edge ids: a read-only slice of
        ``layout.edge_ids``."""
        if not 0 <= path_id < self.num_paths:
            raise PartitioningError(f"no path {path_id}")
        first = int(self.layout.starts[path_id]) - path_id
        return self.layout.edge_ids[
            first : first + int(self.layout.lengths[path_id]) - 1
        ]

    @cached_property
    def average_degrees(self) -> np.ndarray:
        """``D̄(p)`` of every path, the mean total degree of its
        vertices (the ``Pri(p)`` term and the hot/cold ranking): an
        exact integer sum, one rounding in the division."""
        layout = self.layout
        if not layout.lengths.size:
            return np.zeros(0)
        degrees = self.graph.degree()[layout.vertices]
        degrees = np.add.reduceat(degrees, layout.starts) / layout.lengths
        degrees.setflags(write=False)
        return degrees

    def is_hot(self, path_id: int) -> bool:
        return path_id in self.hot_path_ids

    def average_length(self) -> float:
        """Mean edge count per path (the paper reports 3.5-10.9 for its
        datasets)."""
        if not self.num_paths:
            return 0.0
        return float(np.mean(self.layout.lengths - 1))

    def total_edges(self) -> int:
        return int(self.layout.edge_ids.size)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`PartitioningError` unless every check of
        :func:`repro.verify.structural.check_path_set` passes: the paths
        trace real edges, are edge-disjoint, cover the graph, and keep
        to ``d_max``."""
        from repro.verify.structural import check_path_set

        failed = [r for r in check_path_set(self) if not r.passed]
        if failed:
            raise PartitioningError(
                "; ".join(f"{r.name}: {r.detail}" for r in failed)
            )
