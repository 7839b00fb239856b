"""Chunked streaming graph partitioner -> sharded on-disk store.

:func:`partition_graph` builds a :mod:`repro.storage.store` shard
directory from a **re-iterable edge-chunk source** without ever holding
the full edge set in memory. The pipeline is multi-pass streaming —
each pass holds O(num_vertices) bookkeeping plus one chunk:

1. **scan** — vertex count, edge count, out-degrees;
2. **cluster** (``policy="affinity"`` only) — a size-capped union-find
   over the edge stream groups dependency-connected vertices, the same
   cluster idiom PR 4's locality redistribution uses
   (:meth:`repro.core.dispatch.Dispatcher._redistribute_locality`);
3. **affinity** (affinity only) — inter-cluster edge counts (bounded
   top-K sketch), then greedy affinity/balance placement of clusters
   onto parts — the METIS stand-in that minimizes the edge cut;
4. **route** — every edge is appended to its owner part's spill file
   (owner = ``node_map[src]``), counting the edge cut as it goes;
5. **build** — each part's spill (O(edges/parts)) is loaded alone,
   stable-sorted by source, and written as checksummed CSR shard pages;
   the manifest commits last (atomically), so a crash mid-build leaves
   orphan pages, never a manifest referencing missing bytes.

**Bit-identity invariant.** Shards keep *global* vertex ids and the
original within-row edge order: part ``p`` stores the rows of exactly
the vertices it owns, each row byte-identical to the row the in-RAM
:class:`~repro.graph.builder.GraphBuilder` would produce from the same
edge stream (both are stable sorts by source). Reconstruction
(:meth:`repro.storage.sharded.ShardedGraph.materialize`) therefore
rebuilds the original CSR arrays exactly, for *any* partition policy —
the storage layer is lossless by construction and the
``storage_scaling`` experiment certifies it end to end.

``policy="random"`` (deterministic hash of the vertex id) is the
baseline the affinity policy's edge cut is compared against.
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import StorageError
from repro.graph.digraph import DiGraphCSR
from repro.graph.io import DEFAULT_CHUNK_EDGES, EdgeChunk
from repro.storage import pages
from repro.storage.memory import ResidentTracker

#: Known partition policies (affinity = METIS stand-in, random = baseline).
PARTITION_POLICIES = ("affinity", "random")

#: Spill-file record: one edge in input order.
SPILL_DTYPE = np.dtype([("src", "<i8"), ("dst", "<i8"), ("w", "<f8")])

#: Bound on the inter-cluster affinity sketch (entries, not bytes); the
#: sketch keeps the heaviest pairs and prunes deterministically.
MAX_AFFINITY_ENTRIES = 200_000

#: Edges the cluster pass filters at a time: a smaller block lets fewer
#: settled edges through to its per-edge loop, a larger one amortizes it.
CLUSTER_BLOCK_EDGES = 4_096

#: Knuth multiplicative-hash constant for the random policy.
_HASH_MULT = np.uint64(2654435761)

ChunkSource = Callable[[], Iterator[EdgeChunk]]


@dataclass
class PartitionReport:
    """What :func:`partition_graph` built, and what it cost."""

    out_dir: str
    num_vertices: int
    num_edges: int
    num_parts: int
    policy: str
    seed: int
    #: Edges whose destination lives on a different part than the source.
    edge_cut: int
    edge_cut_fraction: float
    part_num_vertices: List[int] = field(default_factory=list)
    part_num_edges: List[int] = field(default_factory=list)
    #: Modeled high-water resident bytes of the whole pipeline.
    peak_resident_bytes: int = 0
    #: Total bytes of all committed pages (the on-disk footprint).
    store_bytes: int = 0
    wall_seconds: float = 0.0
    clusters: int = 0

    def summary(self) -> str:
        return (
            f"{self.out_dir}: {self.num_parts} part(s), "
            f"|V|={self.num_vertices} |E|={self.num_edges}, "
            f"policy={self.policy}, "
            f"edge_cut={self.edge_cut} ({self.edge_cut_fraction:.1%}), "
            f"peak_resident={self.peak_resident_bytes / 1e6:.2f}MB, "
            f"store={self.store_bytes / 1e6:.2f}MB"
        )


# ----------------------------------------------------------------------
# chunk sources
# ----------------------------------------------------------------------
def normalize_chunk_source(source) -> ChunkSource:
    """Accept a callable, an in-RAM graph, or a re-iterable sequence."""
    if callable(source):
        return source
    if isinstance(source, DiGraphCSR):
        return graph_chunk_source(source)
    if isinstance(source, (list, tuple)):
        chunks = tuple(source)

        def replay() -> Iterator[EdgeChunk]:
            return iter(chunks)

        return replay
    raise StorageError(
        "edge-chunk source must be a callable returning an iterator, a "
        f"DiGraphCSR, or a sequence of chunks; got {type(source).__name__}"
    )


def graph_chunk_source(
    graph: DiGraphCSR, chunk_edges: int = DEFAULT_CHUNK_EDGES
) -> ChunkSource:
    """Stream an in-RAM graph's edges in CSR order as bounded chunks."""
    if chunk_edges < 1:
        raise StorageError(f"chunk_edges must be >= 1, got {chunk_edges}")

    def chunks() -> Iterator[EdgeChunk]:
        sources = graph.edge_sources()
        for lo in range(0, graph.num_edges, chunk_edges):
            hi = min(lo + chunk_edges, graph.num_edges)
            yield (
                sources[lo:hi].astype(np.int64, copy=False),
                graph.indices[lo:hi].astype(np.int64, copy=False),
                graph.weights[lo:hi].astype(np.float64, copy=False),
            )

    return chunks


def synthetic_chunk_source(
    num_vertices: int,
    num_edges: int,
    seed: int = 0,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> ChunkSource:
    """A deterministic random-edge stream that never exists in full.

    This is how the ``storage_scaling`` experiment scales generators
    ~100x past what :func:`repro.graph.generators.random_directed`
    materializes: each chunk is drawn from its own
    ``default_rng((seed, chunk_index))`` stream, so any chunk can be
    regenerated independently (the partitioner's multiple passes replay
    the identical stream). Self-loops are remapped deterministically;
    parallel edges are allowed (the engines handle multigraphs).
    """
    if num_vertices < 2:
        raise StorageError("synthetic stream needs at least two vertices")
    if num_edges < 1 or chunk_edges < 1:
        raise StorageError("num_edges and chunk_edges must be >= 1")

    def chunks() -> Iterator[EdgeChunk]:
        for index, lo in enumerate(range(0, num_edges, chunk_edges)):
            count = min(chunk_edges, num_edges - lo)
            rng = np.random.default_rng((seed, index))
            src = rng.integers(0, num_vertices, size=count, dtype=np.int64)
            dst = rng.integers(0, num_vertices, size=count, dtype=np.int64)
            dst = np.where(src == dst, (dst + 1) % num_vertices, dst)
            yield src, dst, np.ones(count, dtype=np.float64)

    return chunks


# ----------------------------------------------------------------------
# streaming passes
# ----------------------------------------------------------------------
def _scan_pass(
    chunks: ChunkSource,
    tracker: ResidentTracker,
    num_vertices: Optional[int],
) -> Tuple[int, int, np.ndarray]:
    """Pass 1: vertex count, edge count, out-degrees; rejects bad chunks."""
    n = int(num_vertices) if num_vertices else 0
    m = 0
    deg = np.zeros(max(n, 1), dtype=np.int64)
    tracker.acquire(deg.nbytes, "degrees")

    def reject(message: str) -> StorageError:
        tracker.release(deg.nbytes, "degrees")
        return StorageError(message)

    for index, (src, dst, w) in enumerate(chunks()):
        if not src.size == dst.size == w.size:
            raise reject(
                f"chunk {index}: src, dst and weight hold "
                f"{src.size}, {dst.size} and {w.size} entries"
            )
        if src.size == 0:
            continue
        with tracker.hold(src.nbytes * 3, "chunk"):
            lowest = int(min(src.min(), dst.min()))
            if lowest < 0:
                raise reject(f"chunk {index}: negative vertex id {lowest}")
            hi = int(max(src.max(), dst.max())) + 1
            if num_vertices is not None and hi > num_vertices:
                raise reject(
                    f"edge endpoint {hi - 1} outside fixed vertex "
                    f"count {num_vertices}"
                )
            if hi > deg.size:
                tracker.release(deg.nbytes, "degrees")
                deg = np.concatenate(
                    [deg, np.zeros(hi - deg.size, dtype=np.int64)]
                )
                tracker.acquire(deg.nbytes, "degrees")
            n = max(n, hi)
            np.add.at(deg, src, 1)
            m += int(src.size)
    if n == 0:
        raise reject("cannot partition an empty edge stream")
    if deg.size != n:
        tracker.release(deg.nbytes, "degrees")
        deg = deg[:n].copy()
        tracker.acquire(deg.nbytes, "degrees")
    return n, m, deg


def _roots(parent: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Cluster roots of ``vertices``, whose pointers are compressed."""
    roots = parent[vertices]
    while True:
        above = parent[roots]
        if np.array_equal(above, roots):
            break
        roots = above
    parent[vertices] = roots
    return roots


def _cluster_pass(
    chunks: ChunkSource,
    n: int,
    num_parts: int,
    tracker: ResidentTracker,
) -> np.ndarray:
    """Pass 2 (affinity): size-capped union-find over the edge stream.

    Merging the endpoints of every edge — refusing merges that would
    grow a cluster past its part-fair share — approximates the
    dependency-connected clusters PR 4's redistribution machinery
    derives from the path DAG, at streaming cost. Returns compact
    cluster labels per vertex.

    Clusters never split or shrink, so an edge whose endpoints share a
    root, or whose two clusters sum past the cap, is a no-op where it
    stands and anywhere later in the stream: each block drops those by
    two array tests on the roots at its start, and only the survivors
    (docs/storage.md bounds them) reach the per-edge union rule.
    """
    parent = np.arange(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)
    tracker.acquire(parent.nbytes + size.nbytes, "union-find")
    cap = max(1, n // max(num_parts, 1))

    for src, dst, _w in chunks():
        with tracker.hold(src.nbytes * 3, "chunk"):
            for lo in range(0, src.size, CLUSTER_BLOCK_EDGES):
                hi = lo + CLUSTER_BLOCK_EDGES
                ru = _roots(parent, src[lo:hi])
                rv = _roots(parent, dst[lo:hi])
                live = (ru != rv) & (size[ru] + size[rv] <= cap)
                if not live.any():
                    continue
                merged: Dict[int, int] = {}  # absorbed root -> absorber
                grown: Dict[int, int] = {}  # absorber -> its new size
                for a, b in zip(ru[live].tolist(), rv[live].tolist()):
                    while a in merged:
                        a = merged[a]
                    while b in merged:
                        b = merged[b]
                    if a == b:
                        continue
                    size_a = grown.get(a) or size.item(a)
                    size_b = grown.get(b) or size.item(b)
                    if size_a + size_b > cap:
                        continue
                    # Union by size, smaller root id wins ties (determinism).
                    if size_a < size_b or (size_a == size_b and b < a):
                        a, b = b, a
                    merged[b] = a
                    grown[a] = size_a + size_b
                parent[list(merged)] = list(merged.values())
                size[list(grown)] = list(grown.values())

    labels = np.unique(_roots(parent, np.arange(n)), return_inverse=True)[1]
    tracker.release(size.nbytes, "union-find")
    tracker.release(parent.nbytes, "union-find")
    tracker.acquire(labels.nbytes, "labels")
    return labels.astype(np.int64)


def _affinity_pass(
    chunks: ChunkSource,
    labels: np.ndarray,
    tracker: ResidentTracker,
) -> Dict[Tuple[int, int], int]:
    """Pass 3 (affinity): bounded inter-cluster edge-count sketch."""
    num_clusters = int(labels.max()) + 1 if labels.size else 0
    # The sketch: sorted pair codes (ci * num_clusters + cj) and counts.
    codes = np.empty(0, dtype=np.int64)
    counts = np.empty(0, dtype=np.int64)
    for src, dst, _w in chunks():
        with tracker.hold(src.nbytes * 3, "chunk"):
            ci = labels[src]
            cj = labels[dst]
            cross = ci != cj
            if not np.any(cross):
                continue
            seen, seen_counts = np.unique(
                ci[cross] * num_clusters + cj[cross], return_counts=True
            )
            at = np.searchsorted(codes, seen)
            # known: the chunk's pairs the sketch already holds, at ``at``.
            known = at < codes.size
            known[known] = codes[at[known]] == seen[known]
            counts[at[known]] += seen_counts[known]
            codes = np.insert(codes, at[~known], seen[~known])
            counts = np.insert(counts, at[~known], seen_counts[~known])
        if codes.size > MAX_AFFINITY_ENTRIES:
            # Deterministic prune: keep the heaviest half (ties by key,
            # which is code order, which a stable sort preserves).
            keep = np.sort(
                np.argsort(-counts, kind="stable")[: MAX_AFFINITY_ENTRIES // 2]
            )
            codes, counts = codes[keep], counts[keep]
    ci, cj = np.divmod(codes, num_clusters)
    return dict(zip(zip(ci.tolist(), cj.tolist()), counts.tolist()))


def _place_clusters(
    labels: np.ndarray,
    cluster_load: np.ndarray,
    pairs: Dict[Tuple[int, int], int],
    num_parts: int,
    balance_slack: float,
) -> np.ndarray:
    """Greedy affinity/balance placement of clusters onto parts.

    The same shape as PR 4's locality redistribution: clusters in
    descending load order, each placed on the eligible part with the
    most edges to already-placed neighbors, ties broken by load then
    part id. ``balance_slack`` caps any part's edge load at
    ``slack * total / parts``.
    """
    num_clusters = int(cluster_load.size)
    neighbors: Dict[int, List[Tuple[int, int]]] = {}
    for (ci, cj), weight in pairs.items():
        neighbors.setdefault(ci, []).append((cj, weight))
        neighbors.setdefault(cj, []).append((ci, weight))

    total = float(cluster_load.sum())
    cap = balance_slack * total / num_parts if total else float("inf")
    order = sorted(
        range(num_clusters), key=lambda c: (-int(cluster_load[c]), c)
    )
    part_of = np.full(num_clusters, -1, dtype=np.int64)
    part_load = np.zeros(num_parts, dtype=np.float64)
    for c in order:
        load = float(cluster_load[c])
        affinity = np.zeros(num_parts, dtype=np.float64)
        for other, weight in neighbors.get(c, ()):
            p = part_of[other]
            if p >= 0:
                affinity[p] += weight
        eligible = np.flatnonzero(part_load + load <= cap)
        if eligible.size == 0:
            eligible = np.arange(num_parts)
        # Max affinity, then least load, then lowest part id.
        best = min(
            eligible.tolist(),
            key=lambda p: (-affinity[p], part_load[p], p),
        )
        part_of[c] = best
        part_load[best] += load
    return part_of


def _route_pass(
    chunks: ChunkSource,
    node_map: np.ndarray,
    num_parts: int,
    out_dir: str,
    tracker: ResidentTracker,
) -> Tuple[int, List[str]]:
    """Pass 4: append every edge to its owner part's spill file."""
    spills = [
        os.path.join(out_dir, f"part{p:04d}.spill") for p in range(num_parts)
    ]
    edge_cut = 0
    try:
        with ExitStack() as stack:
            handles = [
                stack.enter_context(open(path, "wb")) for path in spills
            ]
            for src, dst, w in chunks():
                with tracker.hold(src.nbytes * 3, "chunk"):
                    owners = node_map[src]
                    edge_cut += int(
                        np.count_nonzero(owners != node_map[dst])
                    )
                    order, offsets = _group_by_part(owners, num_parts)
                    records = np.empty(src.size, dtype=SPILL_DTYPE)
                    records["src"] = src[order]
                    records["dst"] = dst[order]
                    records["w"] = w[order]
                    for p in np.flatnonzero(np.diff(offsets)).tolist():
                        handles[p].write(records[offsets[p] : offsets[p + 1]])
    except BaseException:
        _remove_spills(spills)
        raise
    return edge_cut, spills


def _group_by_part(
    owners: np.ndarray, num_parts: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable order by part: ``order[offsets[p]:offsets[p + 1]]`` is part p."""
    order = np.argsort(owners, kind="stable")
    offsets = np.zeros(num_parts + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=num_parts), out=offsets[1:])
    return order, offsets


def _remove_spills(spills: List[str]) -> None:
    """Drop whatever spill files a failed partition left behind."""
    for path in spills:
        if os.path.exists(path):
            os.unlink(path)


def _build_shard(
    out_dir: str,
    part: int,
    spill_path: str,
    vertex_ids: np.ndarray,
    num_vertices: int,
    tracker: ResidentTracker,
) -> Dict:
    """Pass 5 (per part): spill -> stable-sorted CSR shard pages.

    The stable sort by source reproduces exactly the row order the
    in-RAM :class:`~repro.graph.builder.GraphBuilder` would give the
    same edge stream — the bit-identity invariant.
    """
    from repro.storage.store import shard_dirname

    records = np.fromfile(spill_path, dtype=SPILL_DTYPE)
    tracker.acquire(records.nbytes, "spill")
    try:
        order = np.argsort(records["src"], kind="stable")
        src_sorted = records["src"][order]
        indices = np.ascontiguousarray(records["dst"][order])
        weights = np.ascontiguousarray(records["w"][order])
        local_src = np.searchsorted(vertex_ids, src_sorted)
        if src_sorted.size and not np.array_equal(
            vertex_ids[local_src], src_sorted
        ):
            raise StorageError(
                "spill holds edges whose source is not owned by this part",
                shard=part,
                kind="inconsistent",
            )
        counts = np.bincount(local_src, minlength=vertex_ids.size)
        indptr = np.zeros(vertex_ids.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])

        rel_dir = shard_dirname(part)
        abs_dir = os.path.join(out_dir, rel_dir)
        os.makedirs(abs_dir, exist_ok=True)
        page_entries = {
            name: pages.write_array_page(
                os.path.join(abs_dir, f"{name}.page"), arr
            )
            for name, arr in (
                ("vertex_ids", vertex_ids),
                ("indptr", indptr),
                ("indices", indices),
                ("weights", weights),
            )
        }
        return {
            "part": int(part),
            "dir": rel_dir,
            "num_vertices": int(vertex_ids.size),
            "num_edges": int(indices.size),
            "pages": page_entries,
        }
    finally:
        tracker.release(records.nbytes, "spill")
        os.unlink(spill_path)


def _write_edge_map_page(
    out_dir: str,
    node_map: np.ndarray,
    out_degree: np.ndarray,
    num_edges: int,
    tracker: ResidentTracker,
    chunk_vertices: int = 1 << 18,
) -> Dict:
    """Stream-write ``edge_map`` (owner part per CSR edge id).

    CSR edge order groups edges by ascending source vertex, so the map
    is ``repeat(node_map, out_degree)`` — emitted in vertex-range
    chunks with an incremental hash, never held in full.
    """
    import hashlib

    fname = "edge_map.page"
    path = os.path.join(out_dir, fname)
    digest = hashlib.sha256()
    written = 0
    with open(path, "wb") as fh:
        for lo in range(0, node_map.size, chunk_vertices):
            hi = min(lo + chunk_vertices, node_map.size)
            block = np.repeat(
                node_map[lo:hi], out_degree[lo:hi]
            ).astype(np.int32)
            with tracker.hold(block.nbytes, "edge-map-chunk"):
                data = block.tobytes()
                fh.write(data)
                digest.update(data)
                written += len(data)
    return {
        "file": fname,
        "sha256": digest.hexdigest(),
        "raw_bytes": written,
        "dtype": "int32",
        "shape": [int(num_edges)],
    }


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------
def assign_parts(
    chunks: ChunkSource,
    n: int,
    out_degree: np.ndarray,
    num_parts: int,
    policy: str,
    seed: int,
    balance_slack: float,
    tracker: ResidentTracker,
) -> Tuple[np.ndarray, int]:
    """Vertex -> part assignment under one policy.

    Returns ``(node_map int32, clusters)`` where ``clusters`` is the
    cluster count the affinity policy discovered (0 for random).
    """
    if policy == "random":
        ids = np.arange(n, dtype=np.uint64)
        hashed = (ids + np.uint64(seed)) * _HASH_MULT
        node_map = (hashed % np.uint64(num_parts)).astype(np.int32)
        return node_map, 0
    if policy != "affinity":
        raise StorageError(
            f"unknown partition policy {policy!r}; "
            f"known: {PARTITION_POLICIES}"
        )
    labels = _cluster_pass(chunks, n, num_parts, tracker)
    pairs = _affinity_pass(chunks, labels, tracker)
    num_clusters = int(labels.max()) + 1 if labels.size else 0
    # Cluster load = sum of member out-degrees (edge balance, like the
    # dispatcher's edge-count balancing).
    cluster_load = np.bincount(
        labels, weights=out_degree.astype(np.float64),
        minlength=num_clusters,
    )
    # Vertex-count tie-in so empty-degree vertices still spread.
    cluster_load = cluster_load + np.bincount(
        labels, minlength=num_clusters
    ).astype(np.float64)
    part_of = _place_clusters(
        labels, cluster_load, pairs, num_parts, balance_slack
    )
    node_map = part_of[labels].astype(np.int32)
    tracker.release(labels.nbytes, "labels")
    return node_map, num_clusters


def partition_graph(
    edge_chunks,
    num_parts: int,
    out_dir: str,
    policy: str = "affinity",
    num_vertices: Optional[int] = None,
    seed: int = 0,
    balance_slack: float = 1.2,
    tracker: Optional[ResidentTracker] = None,
) -> PartitionReport:
    """Build a sharded on-disk graph store from an edge-chunk stream.

    ``edge_chunks`` is a re-iterable chunk source: a zero-argument
    callable returning an iterator of ``(src, dst, weight)`` array
    triples (:func:`repro.graph.io.edge_list_chunk_source`,
    :func:`synthetic_chunk_source`), an in-RAM
    :class:`~repro.graph.digraph.DiGraphCSR` (streamed in CSR order),
    or a plain list of chunks. The pipeline makes multiple passes, so
    the source must replay the *identical* stream each call.

    The resulting directory holds ``GRAPH.json`` (versioned,
    self-checksummed manifest committed atomically last),
    ``node_map.page`` / ``edge_map.page``, and one ``partNNNN/``
    directory of checksummed CSR pages per part; open it with
    :class:`repro.storage.store.ShardStore` or
    :class:`repro.storage.sharded.ShardedGraph`.

    Raises :class:`~repro.errors.StorageError` on malformed inputs
    (empty stream, ragged chunks or negative ids, endpoints outside a
    fixed ``num_vertices``, a source that does not replay, unknown
    policy) and then leaves no spill file and no manifest behind.
    """
    from repro.storage.store import GRAPH_MANIFEST_NAME, GRAPH_STORE_FORMAT

    if num_parts < 1:
        raise StorageError(f"num_parts must be >= 1, got {num_parts}")
    t0 = time.perf_counter()
    chunks = normalize_chunk_source(edge_chunks)
    tracker = tracker if tracker is not None else ResidentTracker()
    os.makedirs(out_dir, exist_ok=True)

    n, m, out_degree = _scan_pass(chunks, tracker, num_vertices)
    node_map, clusters = assign_parts(
        chunks, n, out_degree, num_parts, policy, seed,
        balance_slack, tracker,
    )
    tracker.acquire(node_map.nbytes, "node-map")
    edge_cut, spills = _route_pass(
        chunks, node_map, num_parts, out_dir, tracker
    )

    parts: List[Dict] = []
    try:
        routed = sum(map(os.path.getsize, spills)) // SPILL_DTYPE.itemsize
        if routed != m:
            raise StorageError(
                f"edge-chunk source does not replay: pass 1 scanned {m} "
                f"edges, pass 4 routed {routed}"
            )
        by_part, offsets = _group_by_part(node_map, num_parts)
        for p in range(num_parts):
            vertex_ids = by_part[offsets[p] : offsets[p + 1]]
            with tracker.hold(vertex_ids.nbytes, "part-vertices"):
                parts.append(
                    _build_shard(
                        out_dir, p, spills[p], vertex_ids, n, tracker
                    )
                )
    finally:
        _remove_spills(spills)

    node_map_entry = pages.write_array_page(
        os.path.join(out_dir, "node_map.page"), node_map
    )
    edge_map_entry = _write_edge_map_page(
        out_dir, node_map, out_degree, m, tracker
    )
    tracker.release(node_map.nbytes, "node-map")
    tracker.release(out_degree.nbytes, "degrees")

    payload = {
        "format": GRAPH_STORE_FORMAT,
        "kind": "sharded-graph",
        "num_vertices": int(n),
        "num_edges": int(m),
        "num_parts": int(num_parts),
        "policy": policy,
        "seed": int(seed),
        "edge_cut": int(edge_cut),
        "clusters": int(clusters),
        "node_map": node_map_entry,
        "edge_map": edge_map_entry,
        "parts": parts,
    }
    pages.commit_json(
        os.path.join(out_dir, GRAPH_MANIFEST_NAME), payload
    )

    store_bytes = (
        int(node_map_entry["raw_bytes"])
        + int(edge_map_entry["raw_bytes"])
        + sum(
            int(page["raw_bytes"])
            for part in parts
            for page in part["pages"].values()
        )
    )
    return PartitionReport(
        out_dir=str(out_dir),
        num_vertices=n,
        num_edges=m,
        num_parts=num_parts,
        policy=policy,
        seed=seed,
        edge_cut=edge_cut,
        edge_cut_fraction=edge_cut / m if m else 0.0,
        part_num_vertices=[part["num_vertices"] for part in parts],
        part_num_edges=[part["num_edges"] for part in parts],
        peak_resident_bytes=tracker.peak_bytes,
        store_bytes=store_bytes,
        wall_seconds=time.perf_counter() - t0,
        clusters=clusters,
    )
