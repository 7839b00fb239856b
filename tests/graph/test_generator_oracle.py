"""The layered crawl's array build against the per-draw loop it replaced.

``generators._build_layered`` takes every uniform from one pre-drawn
stream, ranks it with ``bisect_right`` and stages edges as packed keys;
``tests/graph/generator_oracle.py`` keeps the loop that made one RNG call
per draw. Both must emit the same CSR bytes *and* leave the generator in
the same state, or every graph drawn after them moves.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import generators
from repro.graph.builder import from_edges
from repro.graph.generators import _UniformStream, _ZipfDraw, with_random_weights
from tests.graph.generator_oracle import per_draw_build_layered


def _csr_bytes(graph):
    digest = hashlib.sha256()
    for array in (graph.indptr, graph.indices, graph.weights):
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 160),
    degree=st.floats(1.0, 24.0),
    scc_fraction=st.floats(0.05, 1.0),
    layers=st.integers(1, 24),
    exponent=st.sampled_from([0.8, 1.4, 2.2]),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 2, 7, 64, 4096]),
)
def test_build_matches_the_per_draw_loop(
    n, degree, scc_fraction, layers, exponent, seed, chunk
):
    """Chunk sizes down to 1 put chunk boundaries everywhere, the last
    draw on one included."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(generators, "_UNIFORM_CHUNK", chunk):
        built = generators._build_layered(
            n, degree, scc_fraction, layers, ours, exponent
        )
    expected = per_draw_build_layered(
        n, degree, scc_fraction, layers, theirs, exponent
    )
    assert _csr_bytes(built) == _csr_bytes(expected)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_build_stitches_components_at_scale():
    """A larger build crosses many chunks and stitches many components."""
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    built = generators._build_layered(3000, 12.0, 0.6, 9, ours, 1.4)
    expected = per_draw_build_layered(3000, 12.0, 0.6, 9, theirs, 1.4)
    assert _csr_bytes(built) == _csr_bytes(expected)
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("chunk", [1, 5, 8])
@pytest.mark.parametrize("taken", [0, 1, 4, 5, 8, 13, 16])
def test_stream_hands_out_the_scalar_draws_and_rewinds(chunk, taken):
    """``taken`` at, before and past chunk boundaries; the state before
    holds a buffered half-word, which ``close`` must leave for the next
    ``rng.integers``."""
    ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
    for rng in (ours, theirs):
        rng.integers(0, 1000, size=3)
    assert ours.bit_generator.state["has_uint32"] == 1
    stream = _UniformStream(ours, chunk)
    drawn = [stream.draw() for _ in range(taken)]
    stream.close()
    assert drawn == [theirs.random() for _ in range(taken)]
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert np.array_equal(
        ours.integers(0, 1000, size=9), theirs.integers(0, 1000, size=9)
    )


@pytest.mark.parametrize("size", [1, 2, 3, 17, 400])
def test_rank_is_searchsorted_right_at_ties(size):
    """A uniform equal to a CDF entry ranks past it, as ``choice`` does."""
    zipf = _ZipfDraw(size, 1.4)
    cdf = zipf.cdf
    probes = np.concatenate(
        [
            [0.0, np.nextafter(1.0, 0.0)],
            cdf[:-1],
            np.nextafter(cdf[:-1], 0.0),
            np.nextafter(cdf[:-1], 1.0),
            np.random.default_rng(size).random(64),
        ]
    )
    expected = cdf.searchsorted(probes, side="right")
    assert [zipf.rank(u) for u in probes.tolist()] == expected.tolist()


def _relabel_per_edge(graph, rng):
    """``_relabel_random`` as first written: sorted weighted triples."""
    perm = rng.permutation(graph.num_vertices)
    edges = [
        (int(perm[src]), int(perm[dst]), w) for src, dst, w in graph.edges()
    ]
    return from_edges(sorted(edges), num_vertices=graph.num_vertices)


@pytest.mark.parametrize("seed", range(4))
def test_relabel_matches_sorting_the_triples(seed):
    graph = with_random_weights(
        generators.random_directed(60, 400, seed=seed), seed=seed
    )
    ours = generators._relabel_random(graph, np.random.default_rng(seed))
    expected = _relabel_per_edge(graph, np.random.default_rng(seed))
    assert _csr_bytes(ours) == _csr_bytes(expected)
