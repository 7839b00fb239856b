"""Property tests (hypothesis) for the one path constructor,
``PathSet.from_sequences``, and the one path check, ``check_path_set``,
which ``PathSet.validate`` raises from."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.paths import PathSet
from repro.errors import PartitioningError
from repro.verify.structural import check_path_set
from tests.core.test_dependency_oracle import traced_edges, vertex_paths

#: Vertex sequences over a few vertices (self-loops, revisits, repeated
#: paths, isolated vertices), or no vertex at all.
path_sequences = st.one_of(st.just(([], 0)), vertex_paths())


def _failed(path_set):
    return {r.name for r in check_path_set(path_set) if not r.passed}


def assert_same_verdict(path_set):
    """``validate`` raises exactly when a check fails, naming each."""
    failed = _failed(path_set)
    if not failed:
        path_set.validate()
        return failed
    with pytest.raises(PartitioningError) as raised:
        path_set.validate()
    assert all(name in str(raised.value) for name in failed)
    return failed


@settings(max_examples=120, deadline=None)
@given(case=path_sequences)
def test_from_sequences_round_trips(case):
    sequences, n = case
    graph, edge_paths = traced_edges(sequences, n)
    path_set = PathSet.from_sequences(graph, sequences, edge_paths)
    assert path_set.num_paths == len(sequences)
    assert path_set.sequences == tuple(tuple(vs) for vs in sequences)
    assert [
        path_set.edges_of(p).tolist() for p in range(path_set.num_paths)
    ] == edge_paths
    assert path_set.total_edges() == graph.num_edges
    assert assert_same_verdict(path_set) == set()


@settings(max_examples=150, deadline=None)
@given(
    case=vertex_paths(),
    kind=st.sampled_from(
        ["connectivity", "outside", "duplicate", "coverage", "d-max"]
    ),
    data=st.data(),
)
def test_each_corruption_gets_one_verdict(case, kind, data):
    sequences, n = case
    assume(sequences)
    graph, edge_paths = traced_edges(sequences, n)
    vertex_seqs = [list(vs) for vs in sequences]
    edge_seqs = [list(es) for es in edge_paths]
    p = data.draw(st.integers(0, len(sequences) - 1))
    d_max = None
    if kind == "connectivity":
        assume(n > 1)
        i = data.draw(st.integers(0, len(vertex_seqs[p]) - 1))
        vertex_seqs[p][i] = data.draw(
            st.integers(0, n - 1).filter(lambda w: w != sequences[p][i])
        )
        expected = "paths.connectivity"
    elif kind == "outside":
        i = data.draw(st.integers(0, len(edge_seqs[p]) - 1))
        edge_seqs[p][i] = data.draw(
            st.sampled_from([-1, graph.num_edges, graph.num_edges + 7])
        )
        expected = "paths.connectivity"
    elif kind == "duplicate":
        vertex_seqs.append(vertex_seqs[p])
        edge_seqs.append(edge_seqs[p])
        expected = "paths.edge-disjoint"
    elif kind == "coverage":
        del vertex_seqs[p], edge_seqs[p]
        expected = "paths.coverage"
    else:
        d_max = max(len(es) for es in edge_seqs) - 1
        expected = "paths.d-max"
    path_set = PathSet.from_sequences(
        graph, vertex_seqs, edge_seqs, d_max=d_max
    )
    failed = assert_same_verdict(path_set)
    assert expected in failed
    if kind == "outside":
        assert "outside the graph" in check_path_set(path_set)[0].detail
