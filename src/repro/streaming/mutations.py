"""Mutation batches over an evolving :class:`~repro.graph.digraph.DiGraphCSR`.

The CSR graph is immutable, so streaming works in *batches*: a
:class:`MutationBatch` bundles edge inserts/deletes, weight changes, and
vertex additions; :func:`apply_batch` materializes a new CSR plus the
bookkeeping the incremental machinery needs —

- ``edge_id_map`` — every surviving old edge's new CSR id (deleted edges
  map to ``-1``), so the path repairer can remap surviving paths without
  re-resolving endpoints;
- the inserted/deleted/reweighted edge records with endpoints, so the
  delta planner can derive activation seeds even for edges that no
  longer exist in the new graph.

Edge-id stability: the builder stable-sorts by source, and kept old
edges are staged before inserted ones, so within each source bucket the
old edges keep their relative order and precede this batch's inserts —
the application is fully deterministic.

Mutations apply *sequentially within the batch*: inserting then deleting
the same edge in one batch is legal and nets out; deleting a missing
edge (or inserting a duplicate/self-loop) raises
:class:`~repro.errors.StreamingError` before anything is modified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import StreamingError
from repro.graph.digraph import DiGraphCSR

EDGE_INSERT = "edge_insert"
EDGE_DELETE = "edge_delete"
WEIGHT_CHANGE = "weight_change"
VERTEX_ADD = "vertex_add"

_KINDS = frozenset({EDGE_INSERT, EDGE_DELETE, WEIGHT_CHANGE, VERTEX_ADD})


@dataclass(frozen=True)
class Mutation:
    """One atomic change. Use the classmethod constructors."""

    kind: str
    u: int = -1
    v: int = -1
    weight: float = 1.0
    count: int = 1  # vertex_add only

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise StreamingError(f"unknown mutation kind {self.kind!r}")
        if self.kind == VERTEX_ADD:
            if self.count < 1:
                raise StreamingError("vertex_add count must be >= 1")
            return
        if self.u < 0 or self.v < 0:
            raise StreamingError(
                f"{self.kind}: endpoints must be non-negative, "
                f"got ({self.u}, {self.v})"
            )
        if self.kind == EDGE_INSERT and self.u == self.v:
            raise StreamingError(
                f"edge_insert: self-loop ({self.u}, {self.v}) is not "
                "supported by the path repairer"
            )

    @classmethod
    def insert(cls, u: int, v: int, weight: float = 1.0) -> "Mutation":
        return cls(kind=EDGE_INSERT, u=u, v=v, weight=weight)

    @classmethod
    def delete(cls, u: int, v: int) -> "Mutation":
        return cls(kind=EDGE_DELETE, u=u, v=v)

    @classmethod
    def reweight(cls, u: int, v: int, weight: float) -> "Mutation":
        return cls(kind=WEIGHT_CHANGE, u=u, v=v, weight=weight)

    @classmethod
    def add_vertices(cls, count: int = 1) -> "Mutation":
        return cls(kind=VERTEX_ADD, count=count)


@dataclass(frozen=True)
class MutationBatch:
    """An ordered bundle of mutations applied atomically to one graph."""

    mutations: Tuple[Mutation, ...]
    batch_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mutations", tuple(self.mutations))

    def __len__(self) -> int:
        return len(self.mutations)

    def counts(self) -> Dict[str, int]:
        """Mutation count per kind (vertex_add counts vertices)."""
        out = {kind: 0 for kind in sorted(_KINDS)}
        for m in self.mutations:
            out[m.kind] += m.count if m.kind == VERTEX_ADD else 1
        return out


@dataclass(frozen=True)
class AppliedBatch:
    """The result of applying one batch: the new graph + change records.

    ``weight_changes`` carries ``(new_edge_id, u, v, old_w, new_w)`` so
    the delta planner can classify increases vs decreases; ``deleted``
    carries ``(old_edge_id, u, v)`` because those endpoints are gone
    from the new graph but still seed reactivation.
    """

    old_graph: DiGraphCSR
    graph: DiGraphCSR
    #: old edge id -> new edge id (-1 for deleted), length = old edges.
    edge_id_map: np.ndarray
    #: (new_edge_id, u, v) per inserted edge, in insertion order.
    inserted: Tuple[Tuple[int, int, int], ...]
    #: (old_edge_id, u, v) per deleted edge.
    deleted: Tuple[Tuple[int, int, int], ...]
    #: (new_edge_id, u, v, old_weight, new_weight) per surviving reweight.
    weight_changes: Tuple[Tuple[int, int, int, float, float], ...]
    #: Ids of vertices appended by vertex_add mutations.
    added_vertices: Tuple[int, ...]

    def touched_vertices(self) -> List[int]:
        """Endpoints of every structural/weight change + added vertices."""
        touched = set(self.added_vertices)
        for _, u, v in self.inserted:
            touched.add(u)
            touched.add(v)
        for _, u, v in self.deleted:
            touched.add(u)
            touched.add(v)
        for _, u, v, _, _ in self.weight_changes:
            touched.add(u)
            touched.add(v)
        return sorted(touched)


def _find_live_old_edge(
    graph: DiGraphCSR, u: int, v: int, deleted: np.ndarray
) -> int:
    """First non-deleted old edge id for (u, v), or -1."""
    for eid in graph.out_edge_ids(u):
        eid = int(eid)
        if int(graph.indices[eid]) == v and not deleted[eid]:
            return eid
    return -1


def apply_batch(graph: DiGraphCSR, batch: MutationBatch) -> AppliedBatch:
    """Apply ``batch`` to ``graph``; returns the new graph + records.

    Raises
    ------
    StreamingError
        On any invalid mutation (duplicate insert, missing delete/
        reweight target, endpoint out of range). The check pass runs
        before construction, so a failing batch has no effect.
    """
    old_n = graph.num_vertices
    old_m = graph.num_edges

    # Working state, mutated sequentially in batch order.
    n = old_n
    deleted = np.zeros(old_m, dtype=bool)
    weights = graph.weights.copy()
    old_weight_of: Dict[int, float] = {}  # reweighted old edge -> original w
    # Pending inserts as mutable records [u, v, w, alive].
    pending: List[List[object]] = []
    added: List[int] = []
    deleted_records: List[Tuple[int, int, int]] = []

    def find_pending(u: int, v: int) -> int:
        for i, rec in enumerate(pending):
            if rec[3] and rec[0] == u and rec[1] == v:
                return i
        return -1

    for m in batch.mutations:
        if m.kind == VERTEX_ADD:
            added.extend(range(n, n + m.count))
            n += m.count
            continue
        if m.u >= n or m.v >= n:
            raise StreamingError(
                f"{m.kind}: endpoint ({m.u}, {m.v}) outside vertex "
                f"range [0, {n})"
            )
        in_old = (
            _find_live_old_edge(graph, m.u, m.v, deleted)
            if m.u < old_n
            else -1
        )
        if m.kind == EDGE_INSERT:
            if in_old != -1 or find_pending(m.u, m.v) != -1:
                raise StreamingError(
                    f"edge_insert: edge ({m.u}, {m.v}) already exists"
                )
            pending.append([m.u, m.v, float(m.weight), True])
        elif m.kind == EDGE_DELETE:
            if in_old != -1:
                deleted[in_old] = True
                deleted_records.append((in_old, m.u, m.v))
                old_weight_of.pop(in_old, None)
            else:
                i = find_pending(m.u, m.v)
                if i == -1:
                    raise StreamingError(
                        f"edge_delete: edge ({m.u}, {m.v}) does not exist"
                    )
                pending[i][3] = False
        else:  # WEIGHT_CHANGE
            if in_old != -1:
                old_weight_of.setdefault(in_old, float(weights[in_old]))
                weights[in_old] = float(m.weight)
            else:
                i = find_pending(m.u, m.v)
                if i == -1:
                    raise StreamingError(
                        f"weight_change: edge ({m.u}, {m.v}) does not exist"
                    )
                pending[i][2] = float(m.weight)

    # Assemble the new edge list: kept old edges first, then surviving
    # inserts — the stable sort preserves that order within each source.
    kept = np.flatnonzero(~deleted)
    old_srcs = graph.edge_sources()
    live_pending = [rec for rec in pending if rec[3]]
    ins_srcs = np.asarray([rec[0] for rec in live_pending], dtype=np.int64)
    ins_dsts = np.asarray([rec[1] for rec in live_pending], dtype=np.int64)
    ins_wts = np.asarray([rec[2] for rec in live_pending], dtype=np.float64)

    all_srcs = np.concatenate([old_srcs[kept], ins_srcs])
    all_dsts = np.concatenate([graph.indices[kept], ins_dsts])
    all_wts = np.concatenate([weights[kept], ins_wts])

    order = np.argsort(all_srcs, kind="stable")
    position = np.empty(order.size, dtype=np.int64)
    position[order] = np.arange(order.size, dtype=np.int64)

    counts = (
        np.bincount(all_srcs, minlength=n)
        if all_srcs.size
        else np.zeros(n, dtype=np.int64)
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    new_graph = DiGraphCSR(indptr, all_dsts[order], all_wts[order])

    edge_id_map = np.full(old_m, -1, dtype=np.int64)
    edge_id_map[kept] = position[: kept.size]
    inserted_ids = position[kept.size:]

    inserted_records = tuple(
        (int(inserted_ids[i]), int(rec[0]), int(rec[1]))
        for i, rec in enumerate(live_pending)
    )
    weight_records = tuple(
        (
            int(edge_id_map[eid]),
            int(old_srcs[eid]),
            int(graph.indices[eid]),
            old_w,
            float(weights[eid]),
        )
        for eid, old_w in sorted(old_weight_of.items())
        if not deleted[eid] and float(weights[eid]) != old_w
    )

    return AppliedBatch(
        old_graph=graph,
        graph=new_graph,
        edge_id_map=edge_id_map,
        inserted=inserted_records,
        deleted=tuple(deleted_records),
        weight_changes=weight_records,
        added_vertices=tuple(added),
    )
