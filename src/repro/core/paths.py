"""Directed paths — the basic parallel processing unit of DiGraph.

A :class:`Path` is an ordered sequence of connected directed edges
(Section 3.1): vertices ``v_0 .. v_k`` and the CSR edge ids of
``v_0->v_1, ..., v_{k-1}->v_k``. A :class:`PathSet` is a disjoint
decomposition of a graph's edges into such paths: every edge belongs to
exactly one path, paths may share only vertices (ideally only their
endpoints — the constraint the partitioner maintains for less reprocessing
cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PartitioningError
from repro.graph.digraph import DiGraphCSR


@dataclass(frozen=True)
class Path:
    """One directed path.

    Attributes
    ----------
    path_id:
        Index of the path within its :class:`PathSet`.
    vertices:
        ``v_0 .. v_k`` along the path (length = edges + 1).
    edge_ids:
        CSR edge ids of the path's edges, in order.
    """

    path_id: int
    vertices: Tuple[int, ...]
    edge_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise PartitioningError("a path needs at least one edge")
        if len(self.edge_ids) != len(self.vertices) - 1:
            raise PartitioningError(
                "edge count must be one less than vertex count"
            )

    @property
    def head(self) -> int:
        """First vertex of the path."""
        return self.vertices[0]

    @property
    def tail(self) -> int:
        """Last vertex of the path."""
        return self.vertices[-1]

    @property
    def num_edges(self) -> int:
        return len(self.edge_ids)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def inner_vertices(self) -> Tuple[int, ...]:
        """Vertices that are neither head nor tail (Section 3.2.1's
        *inner vertex* notion used by the merge constraint)."""
        return self.vertices[1:-1]

    def average_degree(self, graph: DiGraphCSR) -> float:
        """Mean total degree of the path's vertices — ``D̄(p)`` in the
        Pri(p) scheduling formula."""
        return float(
            np.mean([graph.degree(int(v)) for v in self.vertices])
        )

    def validate_against(self, graph: DiGraphCSR) -> None:
        """Check the path's edges exist and connect head-to-tail."""
        for i, edge_id in enumerate(self.edge_ids):
            src, dst = graph.edge_endpoints(int(edge_id))
            if src != self.vertices[i] or dst != self.vertices[i + 1]:
                raise PartitioningError(
                    f"path {self.path_id}: edge {edge_id} is "
                    f"({src}->{dst}), expected "
                    f"({self.vertices[i]}->{self.vertices[i + 1]})"
                )

    def __len__(self) -> int:
        return self.num_edges


@dataclass(frozen=True)
class PathLayout:
    """Every path of a :class:`PathSet` end to end, in path-id order —
    the one flat form the preprocessing stages after the walk read."""

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


@dataclass
class PathSet:
    """A disjoint decomposition of a graph's edges into directed paths."""

    graph: DiGraphCSR
    paths: List[Path]
    #: Path ids classified as hot (built by the partitioner from average
    #: vertex degree; hot paths are the fast tracks of Section 3.2.1).
    hot_path_ids: frozenset = field(default_factory=frozenset)
    #: Depth bound the decomposition was built with (Algorithm 1's
    #: ``D_MAX``); ``None`` for hand-assembled path sets. The merge pass
    #: honors the same bound, so every path has at most ``d_max`` edges —
    #: the invariant :mod:`repro.verify` checks.
    d_max: Optional[int] = None

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self.paths)

    def __getitem__(self, path_id: int) -> Path:
        return self.paths[path_id]

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    @cached_property
    def layout(self) -> PathLayout:
        """The paths as flat arrays, built on first use. A repaired or
        rebuilt decomposition is a new ``PathSet`` with its own."""
        count = len(self.paths)
        lengths = np.fromiter(
            (len(path.vertices) for path in self.paths),
            dtype=np.int64,
            count=count,
        )
        total = int(lengths.sum())
        return PathLayout(
            vertices=np.fromiter(
                chain.from_iterable(path.vertices for path in self.paths),
                dtype=np.int64,
                count=total,
            ),
            edge_ids=np.fromiter(
                chain.from_iterable(path.edge_ids for path in self.paths),
                dtype=np.int64,
                count=total - count,
            ),
            lengths=lengths,
            starts=np.cumsum(lengths) - lengths,
        )

    def is_hot(self, path_id: int) -> bool:
        return path_id in self.hot_path_ids

    def average_length(self) -> float:
        """Mean edge count per path (the paper reports 3.5-10.9 for its
        datasets)."""
        if not self.paths:
            return 0.0
        return float(np.mean(self.layout.lengths - 1))

    def total_edges(self) -> int:
        return int(self.layout.edge_ids.size)

    # ------------------------------------------------------------------
    # occurrence maps used by scheduling and replica bookkeeping
    # ------------------------------------------------------------------
    def paths_of_vertex(self) -> Dict[int, List[int]]:
        """Map vertex -> path ids it occurs on (each id listed once)."""
        occurrences: Dict[int, List[int]] = {}
        for path in self.paths:
            seen_here = set()
            for v in path.vertices:
                if v in seen_here:
                    continue
                seen_here.add(v)
                occurrences.setdefault(int(v), []).append(path.path_id)
        return occurrences

    def writer_paths(self) -> Dict[int, List[int]]:
        """Map vertex -> paths where it *receives* an update (has an
        in-edge on the path, i.e. is a non-head position)."""
        writers: Dict[int, List[int]] = {}
        for path in self.paths:
            seen_here = set()
            for v in path.vertices[1:]:
                if v in seen_here:
                    continue
                seen_here.add(v)
                writers.setdefault(int(v), []).append(path.path_id)
        return writers

    def reader_paths(self) -> Dict[int, List[int]]:
        """Map vertex -> paths where it *propagates* (has an out-edge on
        the path, i.e. is a non-tail position)."""
        readers: Dict[int, List[int]] = {}
        for path in self.paths:
            seen_here = set()
            for v in path.vertices[:-1]:
                if v in seen_here:
                    continue
                seen_here.add(v)
                readers.setdefault(int(v), []).append(path.path_id)
        return readers

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Assert the decomposition invariants.

        - every path is a real path of the graph (connected edges),
        - paths are edge-disjoint,
        - the union of paths is exactly the graph's edge set.
        """
        seen = np.zeros(self.graph.num_edges, dtype=bool)
        for i, path in enumerate(self.paths):
            if path.path_id != i:
                raise PartitioningError(
                    f"path at position {i} carries id {path.path_id}"
                )
            path.validate_against(self.graph)
            for edge_id in path.edge_ids:
                if seen[edge_id]:
                    raise PartitioningError(
                        f"edge {edge_id} appears in more than one path"
                    )
                seen[edge_id] = True
        missing = int((~seen).sum())
        if missing:
            raise PartitioningError(
                f"{missing} edges are not covered by any path"
            )


def renumber(paths: Sequence[Path]) -> List[Path]:
    """Return paths with ``path_id`` matching their list position."""
    return [
        Path(path_id=i, vertices=p.vertices, edge_ids=p.edge_ids)
        for i, p in enumerate(paths)
    ]
