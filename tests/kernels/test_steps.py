"""The step kernels against the protocol they fuse, bit for bit.

``resolve_step(program, graph).step(v, old, reads)`` must return what
``program.update_vertex(graph, v, reads, old_state=old)`` returns — the
same double down to the last bit (a NaN's payload included) and the same
``changed`` — for every registered program, on multigraphs with
self-loops, parallel edges and isolated vertices, over states holding
``inf``, ``0.0``, ``-0.0`` and a fault-injected NaN.
"""

import random
import struct

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, make_program
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.baselines.sequential import sequential_topological_run
from repro.bench.runner import make_engine
from repro.graph.builder import from_edges
from repro.kernels import generic_step, resolve_step
from repro.kernels.steps import step_builder_for
from repro.model.gas import VertexProgram

NUM_VERTICES = 14
SPECIALS = (float("inf"), 0.0, -0.0, float("nan"), 2.0 ** 60, 1.0)


def bits(x):
    return struct.pack("d", x)


def multigraph(seed):
    """Random weighted multigraph: self-loops, parallel edges (distinct
    weights), vertices 12 and 13 isolated, vertex 0 a hub."""
    rng = random.Random(seed)
    connected = NUM_VERTICES - 2
    edges = [
        (rng.randrange(connected), rng.randrange(connected), rng.uniform(0.5, 9.0))
        for _ in range(40)
    ]
    edges += [(v, v, rng.uniform(0.5, 9.0)) for v in rng.sample(range(connected), 3)]
    src, dst, _ = edges[0]
    edges += [(src, dst, 2.5), (src, dst, 0.75)]
    edges += [(0, v, 1.0) for v in range(1, 6)]
    return from_edges(edges, num_vertices=NUM_VERTICES)


def state_vectors(program, graph, seed):
    """The program's own initial states, then random vectors in its
    value range salted with the special values."""
    rng = random.Random(seed)
    initial = program.initial_states(graph)
    yield initial.copy()
    for _ in range(6):
        states = np.array(
            [rng.choice((0.0, 1.0, rng.uniform(0.0, 12.0))) for _ in initial]
        )
        for special in SPECIALS:
            states[rng.randrange(states.size)] = special
        yield states


# The protocol side computes on NumPy scalars, which warn about NaN.
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_step_is_update_vertex_bit_for_bit(algo, seed):
    graph = multigraph(seed)
    program = make_program(algo, graph)
    vectors = list(state_vectors(program, graph, seed))
    assert step_builder_for(program) is not None
    step, degree, _ = resolve_step(program, graph)
    assert degree == [
        program.gather_degree(graph, v) for v in range(graph.num_vertices)
    ]
    for states in vectors:
        reads = states.tolist()
        before = [bits(x) for x in reads]
        for v in range(graph.num_vertices):
            # ``old`` as the engines pass it: the vertex's own (fresh)
            # state, and a stale one that differs from what gather reads.
            for old in (reads[v], reads[(v + 1) % len(reads)]):
                expected, expected_changed = program.update_vertex(
                    graph, v, states, old_state=old
                )
                new, changed = step(v, old, reads)
                assert bits(new) == bits(expected), (algo, v, old)
                assert bool(changed) == bool(expected_changed), (algo, v, old)
        assert [bits(x) for x in reads] == before  # a step writes nothing


class Averaging(VertexProgram):
    """A program no kernel knows (a contraction: in-degrees stay under
    20 and weights over 0.5 on the graphs below)."""

    name = "averaging"

    def initial_states(self, graph):
        return np.arange(graph.num_vertices, dtype=np.float64)

    identity = 0.0

    def gather(self, src_state, weight, src, dst):
        return src_state / weight

    def accumulate(self, a, b):
        return a + b

    def apply(self, v, old_state, acc):
        return 1.0 + 0.1 * old_state + 0.02 * acc


class HalvedPageRank(PageRank):
    """Overrides a protocol method: the registered pagerank step no
    longer computes what this program computes."""

    def gather(self, src_state, weight, src, dst):
        return 0.5 * super().gather(src_state, weight, src, dst)


class RenamedSSSP(SSSP):
    """Overrides nothing the step replaces."""

    name = "sssp-renamed"


@pytest.mark.parametrize("program", [Averaging(), HalvedPageRank()])
def test_unregistered_programs_get_the_generic_step(program):
    graph = multigraph(7)
    assert step_builder_for(program) is None
    states = program.initial_states(graph)
    reads = states.tolist()
    step, degree, _ = resolve_step(program, graph)
    reference, reference_degree, _ = generic_step(program, graph)
    assert degree == reference_degree == graph.in_degree().tolist()
    for v in range(graph.num_vertices):
        expected, expected_changed = program.update_vertex(graph, v, states)
        for candidate in (step, reference):
            new, changed = candidate(v, reads[v], reads)
            assert bits(new) == bits(expected)
            assert changed == expected_changed
    registered = resolve_step(PageRank(), graph).step
    assert any(
        registered(v, reads[v], reads)[0] != step(v, reads[v], reads)[0]
        for v in range(graph.num_vertices)
    )


def test_subclass_overriding_no_protocol_method_keeps_the_step():
    assert step_builder_for(RenamedSSSP(source=0)) is step_builder_for(
        SSSP(source=0)
    )


def test_engines_run_an_unregistered_program_through_the_generic_step():
    """Every engine reaches the same fixed point on a program that only
    the protocol loop can run."""
    graph = multigraph(3)
    expected = sequential_topological_run(graph, Averaging()).states
    for name in ("bulk-sync", "async", "digraph", "digraph-t"):
        result = make_engine(name).run(graph, Averaging())
        assert result.converged
        assert np.allclose(result.states, expected, atol=1e-4), name
