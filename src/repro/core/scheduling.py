"""Soft-priority path scheduling on each SMX (Section 3.2.3).

Each path gets ``Pri(p) = α · D̄(p) · N(p) − L(p)`` where

- ``D̄(p)`` — average vertex degree of the path (hot paths score high),
- ``N(p)`` — current number of active vertices on the path (derived
  from the active mask where the priority is evaluated),
- ``L(p)`` — the path's DAG layer number (lower layers first),
- ``α = 1 / (D̄_max · N_max)`` — a preprocessing-time scaling factor that
  keeps the degree-activity term below one, so the layer term dominates:
  the path with the smallest ``L(p)`` always wins, and within a layer the
  hottest/most-active paths win.

When an SMX becomes idle the highest-priority paths run first; cold or
inactive paths are deferred, reducing redundant updates (Fig. 7's
DiGraph-w ablation removes exactly this policy).
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import SchedulingError
from repro.core.dependency import DependencyDAG
from repro.core.paths import PathSet
from repro.core.tables import PathTables


class PathScheduler:
    """Evaluates ``Pri(p)`` over the per-preprocess path tables.

    ``N(p)`` is not kept: it is a function of the vertex active mask,
    derived wherever ``Pri(p)`` is evaluated — by :meth:`active_counts`
    over the whole decomposition, or by the engine's partition pass over
    one ``PartitionBlock`` — so no vertex flip has to touch a counter.
    """

    def __init__(
        self,
        path_set: PathSet,
        dag: DependencyDAG,
        enabled: bool = True,
        tables: Optional[PathTables] = None,
    ) -> None:
        """``tables`` is ``PathTables.build(path_set, dag)`` when the
        caller already holds it (``Preprocessed.execution_tables``
        builds it once for every run over one preprocess)."""
        self.enabled = enabled
        self._tables = tables or PathTables.build(path_set, dag)
        num_paths = path_set.num_paths
        avg_degree = self._tables.avg_degree
        lengths = self._tables.num_vertices
        d_max = float(avg_degree.max()) if num_paths else 1.0
        n_max = float(lengths.max()) if num_paths else 1.0
        #: The paper's preprocessing-time scaling factor.
        self.alpha = 1.0 / max(d_max * n_max, 1.0)
        self._alpha_degree = self.alpha * avg_degree

    # ------------------------------------------------------------------
    # N(p)
    # ------------------------------------------------------------------
    def active_counts(self, active_mask: np.ndarray) -> np.ndarray:
        """``N(p)`` of every path: its distinct active vertices (a path
        that revisits a vertex counts it once)."""
        tables = self._tables
        return np.bincount(
            tables.incidence_path[active_mask[tables.incidence_vertex]],
            minlength=tables.num_vertices.size,
        )

    # ------------------------------------------------------------------
    # Pri(p)
    # ------------------------------------------------------------------
    def priority(self, path_id: int, active_mask: np.ndarray) -> float:
        """``Pri(p) = α · D̄(p) · N(p) − L(p)`` under ``active_mask``."""
        if not 0 <= path_id < self._tables.num_vertices.size:
            raise SchedulingError(f"no path {path_id}")
        ids = np.array([path_id])
        return float(
            self._priorities(ids, self.active_counts(active_mask)[ids])[0]
        )

    def _priorities(
        self, path_ids: np.ndarray, active_counts: np.ndarray
    ) -> np.ndarray:
        return (
            self._alpha_degree[path_ids] * active_counts
            - self._tables.layer[path_ids]
        )

    def order_paths(
        self,
        path_ids: Union[np.ndarray, Iterable[int]],
        active_counts: np.ndarray,
    ) -> List[int]:
        """Processing order for an SMX's paths.

        ``active_counts[i]`` is ``N(p)`` of ``path_ids[i]``. With
        scheduling enabled: descending ``Pri(p)`` (ties by id for
        determinism). Disabled (the DiGraph-w ablation): the warp
        scheduler's default round-robin order, i.e. the given id order.
        """
        if not isinstance(path_ids, np.ndarray):
            path_ids = np.array(list(path_ids), dtype=np.int64)
        if self.enabled:
            path_ids = path_ids[
                np.lexsort(
                    (path_ids, -self._priorities(path_ids, active_counts))
                )
            ]
        return path_ids.tolist()

    def thread_order(
        self,
        path_ids: np.ndarray,
        active_counts: np.ndarray,
        path_work: np.ndarray,
    ) -> np.ndarray:
        """``path_ids`` in the order the thread packer deals them:
        :func:`balance_paths_to_threads` over :meth:`order_paths` as
        one sort — heaviest ``path_work[p]`` first, among equal work
        descending ``Pri(p)`` (ties by id) or, disabled, the given
        order."""
        lighter = -path_work[path_ids]
        if not self.enabled:
            return path_ids[lighter.argsort(kind="stable")]
        return path_ids[
            np.lexsort(
                (path_ids, -self._priorities(path_ids, active_counts), lighter)
            )
        ]


def balance_paths_to_threads(
    path_ids: Sequence[int],
    path_edges: Union[Mapping[int, int], Sequence[int]],
    num_threads: int,
) -> List[List[int]]:
    """Assign paths to threads so per-thread edge counts are almost equal.

    Section 3.2.2: lock-step warps under-utilize an SMX when thread loads
    differ, so paths are packed greedily — longest path to the currently
    lightest thread (LPT); several short paths share a thread that
    balances one long path. The *given order* of equal-length paths is
    preserved (priority order from the scheduler). ``path_edges`` is
    anything indexable by path id.
    """
    # Stable, also in reverse: keeps scheduler priority order among
    # equal lengths.
    ordered = sorted(path_ids, key=path_edges.__getitem__, reverse=True)
    return pack_ordered(ordered, path_edges, num_threads)


def pack_ordered(
    ordered: Sequence[int],
    path_edges: Union[Mapping[int, int], Sequence[int]],
    num_threads: int,
) -> List[List[int]]:
    """LPT packing of paths already in dealing order (heaviest first,
    as :func:`balance_paths_to_threads` or
    :meth:`PathScheduler.thread_order` sorts them)."""
    if num_threads < 1:
        raise SchedulingError("num_threads must be >= 1")
    if len(ordered) <= num_threads:
        # No more paths than threads: placement ``k`` of a positive-work
        # path finds threads ``0..k-1`` loaded and thread ``k`` the
        # lowest empty one, so each gets its own thread, in order. The
        # zero-work paths after them leave the next thread empty, the
        # lightest, so they all stack on it.
        positive = len(ordered)
        while positive and path_edges[ordered[positive - 1]] == 0:
            positive -= 1
        buckets = [[path_id] for path_id in ordered[:positive]]
        if positive < len(ordered):
            buckets.append(list(ordered[positive:]))
        return buckets
    # ``(load, thread)`` min-heap: the lightest thread, lowest index
    # among equals. Already a heap — all loads zero, indices ascending.
    # Thread ``j`` can only be picked after ``j`` earlier placements (an
    # untouched lower index is always preferred), so threads beyond the
    # number of paths are never used and need no heap entry or bucket.
    num_threads = min(num_threads, len(ordered))
    buckets: List[List[int]] = [[] for _ in range(num_threads)]
    loads = [(0, thread) for thread in range(num_threads)]
    for path_id in ordered:
        load, lightest = loads[0]
        buckets[lightest].append(path_id)
        heapq.heapreplace(loads, (load + path_edges[path_id], lightest))
    return [bucket for bucket in buckets if bucket]
