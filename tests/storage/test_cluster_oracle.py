"""The partitioner's array passes against the per-edge loops they replaced.

``reference_cluster_labels`` and ``reference_affinity_pairs`` are the
pass-2 union-find and the pass-3 dict sketch as they stood in
``src/repro/storage/partition.py`` before PR 22 — one Python iteration
per edge, nothing skipped. They are the differential oracle: the
block-filtered union must give the same label to every vertex for any
stream, chunking and block size, and the array sketch the same pair
counts through the prune.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import ResidentTracker
from repro.storage import partition as partition_module
from repro.storage.partition import _affinity_pass, _cluster_pass


def reference_cluster_labels(chunks, n, num_parts):
    """Size-capped union-find, one ``find`` pair per edge."""
    parent = list(range(n))
    size = [1] * n
    cap = max(1, n // max(num_parts, 1))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for src, dst, _w in chunks():
        for u, v in zip(src.tolist(), dst.tolist()):
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            if size[ru] + size[rv] > cap:
                continue
            # Union by size, smaller root id wins ties (determinism).
            if size[ru] < size[rv] or (size[ru] == size[rv] and rv < ru):
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]

    roots = np.array([find(v) for v in range(n)], dtype=np.int64)
    return np.unique(roots, return_inverse=True)[1].astype(np.int64)


def reference_affinity_pairs(chunks, labels, max_entries):
    """Inter-cluster edge counts in a tuple-keyed dict, pruned to half."""
    pairs = {}
    for src, dst, _w in chunks():
        for ci, cj in zip(labels[src].tolist(), labels[dst].tolist()):
            if ci != cj:
                pairs[(ci, cj)] = pairs.get((ci, cj), 0) + 1
        if len(pairs) > max_entries:
            keep = sorted(
                pairs.items(), key=lambda item: (-item[1], item[0])
            )[: max_entries // 2]
            pairs = dict(keep)
    return pairs


def chunk_source(edges, boundaries):
    """Replayable chunks of ``edges`` cut at ``boundaries``."""
    src = np.array([u for u, _v in edges], dtype=np.int64)
    dst = np.array([v for _u, v in edges], dtype=np.int64)
    cuts = sorted({0, len(edges), *(b % (len(edges) + 1) for b in boundaries)})
    chunks = [
        (src[lo:hi], dst[lo:hi], np.ones(hi - lo))
        for lo, hi in zip(cuts, cuts[1:])
    ]
    return lambda: iter(chunks)


def assert_same_labels(monkeypatch, edges, n, num_parts, boundaries, block):
    monkeypatch.setattr(partition_module, "CLUSTER_BLOCK_EDGES", block)
    source = chunk_source(edges, boundaries)
    got = _cluster_pass(source, n, num_parts, ResidentTracker())
    want = reference_cluster_labels(source, n, num_parts)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype


@st.composite
def streams(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    vertex = st.integers(0, n - 1)
    # Few distinct endpoints -> many repeated and already-merged edges.
    hub = st.integers(0, min(n - 1, 7))
    edges = draw(
        st.lists(
            st.tuples(vertex | hub, vertex | hub), min_size=1, max_size=400
        )
    )
    boundaries = draw(st.lists(st.integers(0, 400), max_size=6))
    num_parts = draw(st.sampled_from((1, 2, 3, 7, 32, n, n + 5)))
    block = draw(st.sampled_from((1, 2, 3, 16, 64, 4_096)))
    return edges, n, num_parts, boundaries, block


@settings(max_examples=150, deadline=None)
@given(case=streams())
def test_block_filtered_union_matches_per_edge_loop(case):
    edges, n, num_parts, boundaries, block = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_labels(
            monkeypatch, edges, n, num_parts, boundaries, block
        )


PATH = [(v, v + 1) for v in range(199)]


@pytest.mark.parametrize("block", (1, 5, 4_096))
@pytest.mark.parametrize(
    "edges, n, num_parts",
    [
        pytest.param(PATH, 200, 200, id="cap-1"),
        pytest.param(PATH, 200, 1, id="one-part"),
        pytest.param(PATH[::-1], 200, 4, id="path-fed-in-reverse"),
        pytest.param(
            PATH + PATH[::-1] * 3, 200, 1, id="all-inside-one-cluster"
        ),
        pytest.param([(0, 0), (3, 3), (0, 3)] * 4, 4, 2, id="self-loops"),
        pytest.param(
            [(v, (v * 7 + 1) % 64) for v in range(64)] * 5, 64, 4,
            id="cap-refusals-repeat",
        ),
    ],
)
def test_adversarial_streams(monkeypatch, edges, n, num_parts, block):
    assert_same_labels(monkeypatch, edges, n, num_parts, [13, 14, 150], block)


@settings(max_examples=60, deadline=None)
@given(
    case=streams(),
    max_entries=st.sampled_from((2, 5, 40, 200_000)),
)
def test_array_sketch_matches_dict_sketch(case, max_entries):
    edges, n, num_parts, boundaries, _block = case
    source = chunk_source(edges, boundaries)
    labels = reference_cluster_labels(source, n, num_parts)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(
            partition_module, "MAX_AFFINITY_ENTRIES", max_entries
        )
        got = _affinity_pass(source, labels, ResidentTracker())
    assert got == reference_affinity_pairs(source, labels, max_entries)


@pytest.mark.parametrize("max_entries", (2, 5, 40))
def test_sketch_prune_keeps_the_heaviest_half(monkeypatch, max_entries):
    # Every vertex its own cluster, pair (u, v) repeated (u + v) % 4 + 1
    # times: ties on weight everywhere, so the prune's tie rule decides.
    edges = [
        (u, v)
        for u in range(12)
        for v in range(12)
        if u != v
        for _ in range((u + v) % 4 + 1)
    ]
    source = chunk_source(edges, range(0, len(edges), 29))
    labels = np.arange(12, dtype=np.int64)
    monkeypatch.setattr(partition_module, "MAX_AFFINITY_ENTRIES", max_entries)
    got = _affinity_pass(source, labels, ResidentTracker())
    want = reference_affinity_pairs(source, labels, max_entries)
    assert got == want and 0 < len(got) <= max_entries
