"""Seeded synthetic directed-graph generators.

The paper evaluates on six LAW web/social graphs we cannot ship (no network
access; billions of edges). The generators here produce scaled stand-ins
whose *structural knobs* match what the evaluation actually exercises:

- power-law degree skew (hot vertices, Section 3.2.1's hot paths),
- a giant SCC of controllable relative size (Observation 2),
- controllable average distance (``locality``: web crawls are ring-like and
  long-distance; social graphs are random and short-distance, the contrast
  behind Fig. 11's discussion),
- a DAG periphery of one-update vertices around the giant SCC.

Everything is seeded and deterministic.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder, from_edges, sorted_unique
from repro.graph.digraph import DiGraphCSR
from repro.knobs import Knob


def directed_path(n: int) -> DiGraphCSR:
    """A single directed path ``0 -> 1 -> ... -> n-1``."""
    if n < 1:
        raise GraphError("path needs at least one vertex")
    return from_edges([(i, i + 1) for i in range(n - 1)], num_vertices=n)


def directed_cycle(n: int) -> DiGraphCSR:
    """A single directed cycle over ``n`` vertices."""
    if n < 1:
        raise GraphError("cycle needs at least one vertex")
    return from_edges(
        [(i, (i + 1) % n) for i in range(n)], num_vertices=n
    )


def complete_binary_out_tree(depth: int) -> DiGraphCSR:
    """A complete binary tree with edges pointing away from the root."""
    if depth < 0:
        raise GraphError("depth must be non-negative")
    n = 2 ** (depth + 1) - 1
    edges = []
    for v in range((n - 1) // 2):
        edges.append((v, 2 * v + 1))
        edges.append((v, 2 * v + 2))
    return from_edges(edges, num_vertices=n)


def random_directed(
    n: int, m: int, seed: int = 0, allow_self_loops: bool = False
) -> DiGraphCSR:
    """Uniform random directed graph with ``m`` distinct edges."""
    if n < 1:
        raise GraphError("need at least one vertex")
    max_edges = n * (n - 1) + (n if allow_self_loops else 0)
    if m > max_edges:
        raise GraphError(f"cannot place {m} distinct edges in {n} vertices")
    rng = np.random.default_rng(seed)
    edges: Set[Tuple[int, int]] = set()
    while len(edges) < m:
        need = m - len(edges)
        srcs = rng.integers(0, n, size=need * 2)
        dsts = rng.integers(0, n, size=need * 2)
        for s, d in zip(srcs, dsts):
            if not allow_self_loops and s == d:
                continue
            edges.add((int(s), int(d)))
            if len(edges) == m:
                break
    return from_edges(sorted(edges), num_vertices=n)


def random_dag(n: int, m: int, seed: int = 0) -> DiGraphCSR:
    """Random DAG: edges only go from lower to higher vertex id."""
    if n < 1:
        raise GraphError("need at least one vertex")
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise GraphError(f"cannot place {m} distinct DAG edges in {n} vertices")
    rng = np.random.default_rng(seed)
    edges: Set[Tuple[int, int]] = set()
    while len(edges) < m:
        a = int(rng.integers(0, n))
        b = int(rng.integers(0, n))
        if a == b:
            continue
        edges.add((min(a, b), max(a, b)))
    return from_edges(sorted(edges), num_vertices=n)


class _ZipfDraw:
    """Zipf-weighted draws of ranks ``0 .. size - 1``.

    ``draw(rng, count)`` is bit for bit ``rng.choice(size, size=count,
    p=draw.pmf)`` on NumPy 2.x: ``count`` uniforms searched in the pmf's
    cumsum renormalised to end at 1, a CDF built here once, not per call.
    ``draw.rank(u)`` is the rank one uniform ``u`` draws:
    ``cdf.searchsorted(u, side="right")``, as ``bisect_right`` on the CDF
    as a list.
    """

    def __init__(self, size: int, exponent: float) -> None:
        pmf = np.arange(1, size + 1, dtype=np.float64) ** (-exponent)
        self.pmf = pmf / pmf.sum()
        self.cdf = self.pmf.cumsum()
        self.cdf /= self.cdf[-1]
        self.rank = functools.partial(bisect.bisect_right, self.cdf.tolist())

    def __call__(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.cdf.searchsorted(rng.random(count), side="right")


class _UniformStream:
    """The doubles successive ``rng.random()`` calls return, drawn ahead.

    ``rng.random(k)`` yields the same doubles in the same order as ``k``
    scalar calls, so ``draw()`` hands them out of chunks of ``chunk``,
    each drawn when the last one runs out. :meth:`close` leaves ``rng``
    where the scalar calls would have: it restores the state saved before
    the last chunk and redraws only the doubles taken from it. (Not
    ``bit_generator.advance``: that also clears the buffered half-word
    ``rng.integers`` reads next.)
    """

    def __init__(self, rng: np.random.Generator, chunk: int) -> None:
        self._rng, self._chunk = rng, chunk
        self._saved = None  # bit-generator state before the current chunk
        self._rest = iter(())  # what is left of the current chunk
        self.draw = itertools.chain.from_iterable(self._chunks()).__next__

    def _chunks(self):
        while True:
            self._saved = self._rng.bit_generator.state
            self._rest = iter(self._rng.random(self._chunk).tolist())
            yield self._rest

    def close(self) -> None:
        if self._saved is not None:
            used = self._chunk - operator.length_hint(self._rest)
            self._rng.bit_generator.state = self._saved
            self._rng.random(used)


def power_law_directed(
    n: int, avg_out_degree: float, exponent: float = 2.1, seed: int = 0
) -> DiGraphCSR:
    """Directed configuration-model graph with power-law in-degree.

    Out-degrees are Poisson-like around ``avg_out_degree``; destinations are
    drawn from a Zipf-weighted vertex distribution so a few vertices become
    hot (high in-degree), matching the paper's power-law premise.
    """
    if n < 2:
        raise GraphError("need at least two vertices")
    if avg_out_degree <= 0:
        raise GraphError("avg_out_degree must be positive")
    rng = np.random.default_rng(seed)
    zipf = _ZipfDraw(n, exponent)
    # Hot vertices get the low ranks; shuffle the rank->vertex assignment so
    # hotness is not correlated with vertex id.
    perm = rng.permutation(n)
    out_deg = rng.poisson(avg_out_degree, size=n)
    edges: Set[Tuple[int, int]] = set()
    for src in range(n):
        k = int(out_deg[src])
        if k == 0:
            continue
        targets = perm[zipf(rng, k)]
        for dst in targets:
            if int(dst) != src:
                edges.add((src, int(dst)))
    return from_edges(sorted(edges), num_vertices=n)


def rmat(
    scale: int,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> DiGraphCSR:
    """Kronecker/R-MAT graph with ``2**scale`` vertices (Graph500-style)."""
    if scale < 1:
        raise GraphError("scale must be >= 1")
    d = 1.0 - a - b - c
    if d < 0:
        raise GraphError("R-MAT probabilities must sum to <= 1")
    rng = np.random.default_rng(seed)
    n = 2 ** scale
    m = edge_factor * n
    srcs = np.zeros(m, dtype=np.int64)
    dsts = np.zeros(m, dtype=np.int64)
    thresholds = np.array([a, a + b, a + b + c])
    for bit in range(scale):
        r = rng.random(m)
        quadrant = np.searchsorted(thresholds, r, side="right")
        srcs = (srcs << 1) | (quadrant >> 1)
        dsts = (dsts << 1) | (quadrant & 1)
    keep = srcs != dsts
    edges = sorted(set(zip(srcs[keep].tolist(), dsts[keep].tolist())))
    return from_edges(edges, num_vertices=n)


def scc_profile_graph(
    n: int,
    avg_degree: float,
    giant_scc_fraction: float,
    avg_distance: float,
    seed: int = 0,
    hot_exponent: float = 1.4,
) -> DiGraphCSR:
    """Graph with a controllable giant SCC, degree skew, and distance profile.

    A *layered crawl* model. Vertices are spread over ``L ~ avg_distance``
    layers; edges mostly run to the next layer (with some same-layer and
    layer-skipping edges), targets chosen Zipf-hot within the destination
    layer so hubs emerge. A contiguous window of layers holding
    ``giant_scc_fraction`` of the vertices additionally gets back-edges to
    the previous layer; a final stitching pass merges the window's strongly
    connected pieces into one giant SCC by threading a cycle through them.
    Layers outside the window only have forward edges, so those vertices
    form the acyclic IN/OUT periphery of Observation 2 (one-update
    vertices).

    ``avg_distance`` large (many layers) yields web-crawl-like graphs (cnr,
    webbase, it04 of Table 1); small values yield social-like short-distance
    graphs (ljournal, twitter).
    """
    if n < 4:
        raise GraphError("need at least four vertices")
    if not 0.0 < giant_scc_fraction <= 1.0:
        raise GraphError("giant_scc_fraction must be in (0, 1]")
    if avg_distance < 1.0:
        raise GraphError("avg_distance must be >= 1")
    if avg_degree < 1.0:
        raise GraphError("avg_degree must be >= 1")

    # Auto-calibrate the layer count: the realized mean distance depends on
    # degree (hub shortcuts) and the SCC window, so generate, measure with
    # sampled BFS, and adjust the layer count multiplicatively. Everything
    # is seeded, so the result is deterministic.
    from repro.graph.metrics import average_distance as _measure

    # A giant SCC needs layers outside its window to leave an acyclic
    # periphery, so the layer count never drops below this floor. Low-degree
    # graphs also have a distance floor the calibration cannot chase below;
    # keeping the best attempt handles both gracefully.
    min_layers = 4 if giant_scc_fraction < 0.95 else 2
    factor = 2.0
    best_graph = None
    best_error = float("inf")
    tried: Set[int] = set()
    for attempt in range(6):
        num_layers = max(min_layers, int(round(avg_distance * factor)))
        if num_layers in tried:
            break
        tried.add(num_layers)
        graph = _build_layered(
            n,
            avg_degree,
            giant_scc_fraction,
            num_layers,
            np.random.default_rng(seed),
            hot_exponent,
        )
        measured = _measure(
            graph, sample=32, rng=np.random.default_rng(seed + attempt)
        )
        if measured <= 0:
            return graph
        error = abs(measured - avg_distance) / avg_distance
        if error < best_error:
            best_error = error
            best_graph = graph
        if error <= 0.25:
            break
        factor = min(16.0, max(0.1, factor * avg_distance / measured))
    assert best_graph is not None
    return _relabel_random(best_graph, np.random.default_rng(seed + 9000))


def _relabel_random(
    graph: DiGraphCSR, rng: np.random.Generator
) -> DiGraphCSR:
    """Apply a random vertex relabeling.

    The layered construction assigns ids in layer order, which would make
    plain vertex-id iteration an accidental topological order — silently
    gifting id-order engines a perfect processing schedule. Real dataset
    ids carry no such structure, so scramble them. (All metrics are
    label-invariant.)

    Edges come out sorted by relabelled ``(src, dst)``; no two edges share
    that pair, so it orders them as sorting the weighted triples did.
    """
    n = graph.num_vertices
    perm = rng.permutation(n)
    src, dst = perm[graph.edge_sources()], perm[graph.indices]
    order = np.lexsort((dst, src))
    return (
        GraphBuilder(num_vertices=n)
        .add_edge_arrays(src[order], dst[order], graph.weights[order])
        .build()
    )


def _from_keys(keys: np.ndarray, n: int) -> DiGraphCSR:
    """The graph of ascending packed edge keys ``src * n + dst``."""
    src, dst = np.divmod(keys, n)
    return GraphBuilder(num_vertices=n).add_edge_arrays(src, dst).build()


#: Doubles per pre-drawn chunk of the layered build's uniform stream: the
#: chunk, not the graph, bounds the stream's memory.
_UNIFORM_CHUNK = 4096


def _build_layered(
    n: int,
    avg_degree: float,
    giant_scc_fraction: float,
    num_layers: int,
    rng: np.random.Generator,
    hot_exponent: float,
) -> DiGraphCSR:
    """One layered-crawl instance with a fixed layer count."""
    layer_of = np.sort(rng.integers(0, num_layers, size=n))
    layer_members: List[np.ndarray] = [
        np.flatnonzero(layer_of == l) for l in range(num_layers)
    ]
    # Drop empty layers (tiny graphs).
    layer_members = [m for m in layer_members if m.size > 0]
    num_layers = len(layer_members)
    # Re-derive layer_of from the compacted layers.
    layer_of = np.empty(n, dtype=np.int64)
    for l, members in enumerate(layer_members):
        layer_of[members] = l

    # Pick the SCC window: contiguous layers centred in the chain whose
    # member count first reaches the target fraction.
    target_core = giant_scc_fraction * n
    size = 0
    lo = max(0, (num_layers - 1) // 4)
    hi = lo
    while hi < num_layers and size < target_core:
        size += layer_members[hi].size
        hi += 1
    # If starting a quarter of the way in ran out of layers, slide back.
    while size < target_core and lo > 0:
        lo -= 1
        size += layer_members[lo].size
    best_lo, best_hi = lo, hi
    in_window = (layer_of >= best_lo) & (layer_of < best_hi)

    # Zipf hotness within each layer.
    hot = [_ZipfDraw(members.size, hot_exponent) for members in layer_members]

    # Out-degree budgets correlate with in-degree hotness: a vertex's Zipf
    # weight within its layer governs both how often it is *targeted* (the
    # draw below) and how many out-edges it gets. Real web/social hubs have
    # correlated in/out degree; without this, trails through hubs die
    # immediately (in-excess forces sum(max(0, in-out)) trail endings) and
    # no path decomposition can reach the paper's average path lengths.
    hotness = np.empty(n, dtype=np.float64)
    for members, zipf in zip(layer_members, hot):
        hotness[members] = zipf.pmf * members.size  # mean 1 within the layer
    mean_budget = np.maximum(
        avg_degree * (0.3 + 0.7 * hotness), 0.1
    )
    budget = rng.poisson(mean_budget) + 1

    # Every draw below (the slot's ``r`` and each retry's Zipf rank) takes
    # exactly one ``rng.random()`` double, so one stream serves them all.
    # Edges can only collide within one source: ``targets`` holds the
    # current source's, and ``keys`` collects ``v * n + dst``.
    uniforms = _UniformStream(rng, _UNIFORM_CHUNK)
    draw = uniforms.draw
    members = [m.tolist() for m in layer_members]
    rank = [zipf.rank for zipf in hot]
    keys: List[int] = []
    for v, (l, window, slots) in enumerate(
        zip(layer_of.tolist(), in_window.tolist(), budget.tolist())
    ):
        targets: Set[int] = set()
        for _ in range(slots):
            r = draw()
            if window and r < 0.25 and l > best_lo:
                target_layer = l - 1  # back-edge inside the SCC window
            elif r < 0.40 and len(members[l]) > 1:
                target_layer = l  # same-layer edge
            elif l + 2 < num_layers and r < 0.50:
                target_layer = l + 2  # skip edge
            elif l + 1 < num_layers:
                target_layer = l + 1  # forward crawl edge
            elif l > 0 and window and l > best_lo:
                target_layer = l - 1
            else:
                target_layer = l
            # Back/same-layer targets outside the window would create
            # unwanted cycles in the periphery; clamp them forward.
            if not window and target_layer <= l:
                if l + 1 < num_layers:
                    target_layer = l + 1
                else:
                    continue
            if target_layer <= l and not (
                window and best_lo <= target_layer < best_hi
            ):
                if target_layer < l:
                    continue
            # Retry a few times on hot-target collisions so the realized
            # average degree tracks the requested one.
            for _retry in range(4):
                dst = members[target_layer][rank[target_layer](draw())]
                if dst != v and dst not in targets:
                    targets.add(dst)
                    keys.append(v * n + dst)
                    break
    uniforms.close()

    staged = np.sort(np.asarray(keys, dtype=np.int64))
    stitch = _stitch_window_sccs(
        _from_keys(staged, n), np.flatnonzero(in_window), rng
    )
    return _from_keys(sorted_unique(np.concatenate([staged, stitch])), n)


def _stitch_window_sccs(
    graph: DiGraphCSR, window: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Keys ``src * n + dst`` of the edges that merge the window's SCCs
    into one by threading a cycle through them.

    One random member represents each component; the representatives
    are threaded in ascending id order (ids follow layer order, since
    layers were assigned to sorted ids), one edge from each to the next
    plus a closing back-edge, turning the component chain into a single
    cycle — hence one SCC — with only ``num_components`` edges.
    """
    # Import here to avoid a module cycle (scc imports builder).
    from repro.graph.scc import component_members, strongly_connected_components

    none = np.empty(0, dtype=np.int64)
    if window.size == 0:
        return none
    labels = strongly_connected_components(graph.subgraph_vertices(window))
    num_components = int(labels.max()) + 1
    if num_components <= 1:
        return none
    # One ``rng.integers`` per component, in component order.
    reps = np.sort(
        [
            window[members[rng.integers(0, len(members))]]
            for members in component_members(labels, num_components)
        ]
    )
    return reps * graph.num_vertices + np.roll(reps, -1)


def add_bidirectional_edges(
    graph: DiGraphCSR, ratio: float, seed: int = 0
) -> DiGraphCSR:
    """Add reverse edges until ``ratio`` of edges sit in a 2-cycle (Fig. 14).

    Matches the paper's Fig. 14 methodology of "adding directed edges on
    webbase" to raise the fraction of bi-directional edges. ``ratio = 1``
    makes the graph symmetric.
    """
    if not 0.0 <= ratio <= 1.0:
        raise GraphError("ratio must be in [0, 1]")
    rng = np.random.default_rng(seed)
    existing: Set[Tuple[int, int]] = set()
    for src, dst, _ in graph.edges():
        existing.add((src, dst))
    one_way = [
        (src, dst) for (src, dst) in existing if (dst, src) not in existing
    ]
    current_bidi = len(existing) - len(one_way)

    def bidi_fraction(total: int, bidi: int) -> float:
        return bidi / total if total else 0.0

    new_edges = list(existing)
    bidi = current_bidi
    rng.shuffle(one_way)
    for src, dst in one_way:
        if bidi_fraction(len(new_edges), bidi) >= ratio:
            break
        new_edges.append((dst, src))
        bidi += 2
    return from_edges(sorted(new_edges), num_vertices=graph.num_vertices)


def with_random_weights(
    graph: DiGraphCSR,
    low: float = 1.0,
    high: float = 10.0,
    seed: int = 0,
) -> DiGraphCSR:
    """Copy of ``graph`` with uniform random edge weights in ``[low, high)``."""
    if low > high:
        raise GraphError("low must be <= high")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(low, high, size=graph.num_edges)
    return DiGraphCSR(graph.indptr.copy(), graph.indices.copy(), weights)


def bowtie_graph(
    core: int, in_tail: int, out_tail: int, seed: int = 0
) -> DiGraphCSR:
    """Classic web 'bow-tie': IN component -> SCC core -> OUT component.

    Useful in tests for exercising the dependency DAG: IN and OUT tails are
    pure one-update regions; the core is one SCC.
    """
    if core < 2:
        raise GraphError("core must have at least two vertices")
    rng = np.random.default_rng(seed)
    edges: List[Tuple[int, int]] = []
    for v in range(core):
        edges.append((v, (v + 1) % core))
    next_id = core
    for _ in range(in_tail):
        target = int(rng.integers(0, core))
        edges.append((next_id, target))
        next_id += 1
    for _ in range(out_tail):
        source = int(rng.integers(0, core))
        edges.append((source, next_id))
        next_id += 1
    return from_edges(edges, num_vertices=core + in_tail + out_tail)


#: Workload shapes :func:`mutation_trace` can draw.
MUTATION_MIXES = ("insert", "delete", "mixed")

#: The trace's knobs: each is a stream-mode sweep knob, a keyword of
#: :func:`repro.streaming.session.run_stream_cell` and a ``repro stream``
#: flag. A cell replays a short insert-lean trace (the streaming sweet
#: spot); the interactive defaults are longer and mixed.
TRACE_KNOBS = (
    Knob(
        "stream_batches", int, 3, minimum=0, sweep=True,
        flag="--batches", flag_default=4,
        help="trace length (default: 4)",
    ),
    Knob(
        "stream_batch_size", int, 4, minimum=1, sweep=True,
        flag="--batch-size", flag_default=8,
        help="mutations per batch (default: 8)",
    ),
    Knob(
        "stream_mix", str, "insert", choices=MUTATION_MIXES, sweep=True,
        flag="--mix", flag_default="mixed",
        help="trace shape: insert-only, delete-heavy, or mixed "
        "(default: mixed)",
    ),
)


def mutation_trace(
    graph: DiGraphCSR,
    n_batches: int,
    seed: int = 0,
    batch_size: int = 8,
    mix: str = "mixed",
):
    """Seeded, replayable mutation trace for streaming benchmarks.

    Produces ``n_batches`` :class:`~repro.streaming.mutations.MutationBatch`
    objects that are valid to apply *in sequence* starting from
    ``graph`` — the generator tracks the evolving edge set, so deletes
    always target a live edge and inserts never duplicate one. The same
    ``(graph, n_batches, seed, batch_size, mix)`` always yields the
    identical trace.

    ``mix`` selects the workload shape:

    - ``"insert"`` — inserts only (the growth-safe resume fast path);
    - ``"delete"`` — ~80% deletes / 20% inserts (exercises the
      reset-and-recompute fallback);
    - ``"mixed"`` — inserts, deletes, weight changes, and the occasional
      vertex addition.
    """
    # Import here to avoid a module cycle.
    from repro.streaming.mutations import Mutation, MutationBatch

    if n_batches < 0:
        raise GraphError("n_batches must be >= 0")
    if batch_size < 1:
        raise GraphError("batch_size must be >= 1")
    if mix not in MUTATION_MIXES:
        raise GraphError(f"unknown trace mix {mix!r}")
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    # The distinct (src, dst) pairs in order, from packed keys; deletes
    # and reweights index ``live``, inserts test ``edges``.
    src, dst = np.divmod(
        sorted_unique(graph.edge_sources() * n + graph.indices), n
    )
    live = list(zip(src.tolist(), dst.tolist()))
    edges: Set[Tuple[int, int]] = set(live)

    def draw_insert() -> Optional[Tuple[int, int]]:
        for _ in range(64):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u != v and (u, v) not in edges:
                return u, v
        return None

    batches: List[MutationBatch] = []
    for batch_id in range(n_batches):
        mutations: List[Mutation] = []
        while len(mutations) < batch_size:
            if mix == "insert":
                kind = "insert"
            elif mix == "delete":
                kind = "delete" if rng.random() < 0.8 else "insert"
            else:
                roll = rng.random()
                if roll < 0.45:
                    kind = "insert"
                elif roll < 0.75:
                    kind = "delete"
                elif roll < 0.95:
                    kind = "reweight"
                else:
                    kind = "vertex_add"
            if kind == "insert":
                pick = draw_insert()
                if pick is None:
                    continue
                u, v = pick
                weight = float(rng.uniform(1.0, 10.0))
                mutations.append(Mutation.insert(u, v, weight=weight))
                edges.add((u, v))
                bisect.insort(live, (u, v))
            elif kind == "delete":
                if not live:
                    continue
                u, v = live.pop(int(rng.integers(0, len(live))))
                mutations.append(Mutation.delete(u, v))
                edges.discard((u, v))
            elif kind == "reweight":
                if not live:
                    continue
                u, v = live[int(rng.integers(0, len(live)))]
                weight = float(rng.uniform(1.0, 10.0))
                mutations.append(Mutation.reweight(u, v, weight))
            else:
                mutations.append(Mutation.add_vertices(1))
                n += 1
        batches.append(
            MutationBatch(tuple(mutations), batch_id=batch_id)
        )
    return batches
