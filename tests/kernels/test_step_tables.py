"""The step kernels' per-vertex tables against the protocol calls they
replace.

Every registered step builder cuts its gather inputs from the graph's
CSC / CSR arrays in one pass, and :func:`dependents_table` cuts each
vertex's dependents the same way. ``protocol_inputs`` is what the
builders memoised per vertex, on first touch, from the program's own
``gather_edges`` before that; the tables must equal it entry for entry,
down to the last bit of every per-edge constant.
"""

import functools

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, make_program
from repro.algorithms.adsorption import Adsorption
from repro.algorithms.bfs import BFSLevels
from repro.algorithms.pagerank import PageRank
from repro.algorithms.ppr import PersonalizedPageRank
from repro.algorithms.sssp import SSSP
from repro.graph import datasets
from repro.graph.builder import from_edges
from repro.kernels import resolve_step
from repro.kernels.steps import dependents_table, step_builder_for

from tests.kernels.test_steps import HalvedPageRank, multigraph


def protocol_inputs(program, graph, v):
    """One vertex's gather inputs as the step builders memoised them."""
    edges = list(program.gather_edges(graph, v))
    if isinstance(program, (PageRank, PersonalizedPageRank)):
        out_degree = graph.out_degree().astype(float).tolist()
        return tuple(
            (src, out_degree[src]) for src, _ in edges if out_degree[src] != 0
        )
    if isinstance(program, Adsorption):
        denom = program._in_weight_sum.tolist()[v]
        if denom == 0:
            return ()
        return tuple((src, weight / denom) for src, weight in edges)
    if isinstance(program, BFSLevels):
        return tuple((src, 1.0) for src, _ in edges)
    if isinstance(program, SSSP):
        return tuple(edges)
    return tuple(src for src, _ in edges)


def with_dead_ends():
    """Sinks (no out-edges) and sources (no in-edges), and vertices whose
    in-weights sum to zero: 4 has one in-edge of weight 0.0, 5 two of
    opposite weights; 7 is isolated."""
    return from_edges(
        [
            (0, 1, 2.0), (0, 2, 0.5), (1, 2, 1.5), (2, 3, 1.0),
            (3, 4, 0.0), (1, 5, 2.0), (2, 5, -2.0), (6, 0, 3.0),
            (5, 5, 1.0), (5, 5, -1.0),
        ],
        num_vertices=8,
    )


@functools.lru_cache(maxsize=None)
def graph_named(name, weighted):
    if name == "multigraph":
        return multigraph(5)
    if name == "dead-ends":
        return with_dead_ends()
    return datasets.load(name, scale=0.3, weighted=weighted)


GRAPHS = ("multigraph", "dead-ends", "webbase", "twitter")


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("graph_name", GRAPHS)
def test_bulk_tables_equal_the_protocol_ones(graph_name, algo):
    graph = graph_named(graph_name, algo == "sssp")
    program = make_program(algo, graph)
    program.initial_states(graph)
    assert step_builder_for(program) is not None
    inputs = resolve_step(program, graph).inputs
    dependents = dependents_table(program, graph)
    assert len(inputs) == len(dependents) == graph.num_vertices
    for v in range(graph.num_vertices):
        # repr: every constant to the last bit, -0.0 apart from 0.0.
        assert repr(inputs[v]) == repr(protocol_inputs(program, graph, v))
        assert dependents[v] == tuple(
            map(int, program.dependents(graph, v))
        )
        assert all(type(u) is int for u in dependents[v])


def test_the_cases_the_tables_skip_are_present():
    """The dead-ends graph holds what the cut has to get right: vertices
    without in-edges, sinks, and zero in-weight sums with in-edges."""
    graph = with_dead_ends()
    program = make_program("adsorption", graph)
    program.initial_states(graph)
    in_degree = graph.in_degree()
    assert (in_degree == 0).any() and (graph.out_degree() == 0).any()
    zero_sum = (program._in_weight_sum == 0) & (in_degree > 0)
    assert zero_sum.tolist() == [False] * 4 + [True, True] + [False] * 2
    inputs = resolve_step(program, graph).inputs
    assert inputs[4] == inputs[5] == ()


def test_an_overriding_subclass_keeps_the_protocol_memo():
    graph = multigraph(2)
    program = HalvedPageRank()
    program.initial_states(graph)
    assert step_builder_for(program) is None
    kernel = resolve_step(program, graph)
    assert kernel.inputs == [None] * graph.num_vertices
    assert dependents_table(program, graph) == [None] * graph.num_vertices
    reads = program.initial_states(graph).tolist()
    kernel.step(3, reads[3], reads)
    assert kernel.inputs[3] == tuple(program.gather_edges(graph, 3))
    assert np.count_nonzero([x is not None for x in kernel.inputs]) == 1
