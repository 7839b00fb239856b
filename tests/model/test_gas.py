"""Unit tests for the GAS vertex-program API."""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.graph.builder import from_edges
from repro.graph.generators import directed_path
from repro.kernels.registry import resolve_kernel
from repro.verify.oracle import ALL_ALGORITHMS


@pytest.fixture
def chain():
    return directed_path(4)


class TestGatherMachinery:
    def test_gather_edges_are_in_edges(self, chain):
        prog = PageRank()
        prog.initial_states(chain)
        edges = list(prog.gather_edges(chain, 2))
        assert edges == [(1, 1.0)]

    def test_gather_degree(self, chain):
        prog = PageRank()
        assert prog.gather_degree(chain, 0) == 0
        assert prog.gather_degree(chain, 1) == 1

    def test_full_gather_folds(self):
        g = from_edges([(0, 2), (1, 2)])
        prog = PageRank()
        states = prog.initial_states(g)
        acc = prog.full_gather(g, 2, states)
        assert acc == pytest.approx(2.0)  # 1/outdeg + 1/outdeg = 1 + 1

    def test_update_vertex_does_not_write(self, chain):
        prog = PageRank()
        states = prog.initial_states(chain)
        before = states.copy()
        prog.update_vertex(chain, 1, states)
        assert np.array_equal(states, before)

    def test_update_vertex_old_state_override(self, chain):
        prog = SSSP(source=0)
        states = prog.initial_states(chain)
        new, changed = prog.update_vertex(
            chain, 1, states, old_state=float("inf")
        )
        assert new == 1.0
        assert changed

    def test_dependents_default_out_neighbors(self, chain):
        prog = PageRank()
        assert list(prog.dependents(chain, 1)) == [2]

    def test_has_converged_tolerance(self):
        prog = PageRank(tolerance=0.1)
        assert prog.has_converged(1.0, 1.05)
        assert not prog.has_converged(1.0, 1.2)

    def test_repr(self):
        assert "pagerank" in repr(PageRank())


class TestGatherDegreeMatchesGatherEdges:
    """The path walk charges ``len(gather_edges(v))`` per update and
    balances threads by ``gather_degree``; the two must be one number,
    also where the graph has self-loops and parallel edges."""

    MULTIGRAPH = [
        (0, 0), (0, 1), (0, 1), (1, 2), (2, 1), (2, 2), (2, 2),
        (3, 0), (3, 0), (3, 0), (1, 3), (4, 4), (5, 2),
    ]

    @pytest.mark.parametrize("algo", ALL_ALGORITHMS)
    def test_all_programs_on_a_multigraph(self, algo):
        # Vertex 6 is isolated, 4 has only its self-loop.
        g = from_edges(self.MULTIGRAPH, num_vertices=7)
        prog = make_program(algo, g)
        prog.initial_states(g)
        for v in range(g.num_vertices):
            edges = list(prog.gather_edges(g, v))
            assert prog.gather_degree(g, v) == len(edges), v
            assert all(
                type(src) is int and type(weight) is float
                for src, weight in edges
            )
            assert all(type(u) is int for u in prog.dependents(g, v))
        kernel_degrees = resolve_kernel(prog, g).gather_degrees(
            np.arange(g.num_vertices)
        )
        assert kernel_degrees.tolist() == [
            prog.gather_degree(g, v) for v in range(g.num_vertices)
        ]
