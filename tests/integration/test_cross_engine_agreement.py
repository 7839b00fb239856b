"""Cross-engine correctness: all five engines reach the same fixed point.

This is the apples-to-apples guarantee behind every comparison figure:
bulk-sync (Jacobi), async (chaotic relaxation), and the three DiGraph
configurations must agree on the final states for every benchmark
algorithm, differing only in cost.
"""

from functools import partial

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.baselines.async_engine import AsyncEngine
from repro.baselines.bulk_sync import BulkSyncEngine
from repro.bench.results import states_close
from repro.bench.runner import make_engine
from repro.core.engine import DiGraphEngine
from repro.graph.generators import scc_profile_graph, with_random_weights

ENGINES = [
    ("bulk-sync", BulkSyncEngine),
    ("async", AsyncEngine),
    ("digraph-t", partial(make_engine, "digraph-t")),
    ("digraph-w", partial(make_engine, "digraph-w")),
    ("digraph", DiGraphEngine),
]


@pytest.fixture(scope="module")
def graph():
    return scc_profile_graph(150, 4.0, 0.5, 4.0, seed=11)


@pytest.fixture(scope="module")
def weighted_graph(graph):
    return with_random_weights(graph, seed=12)


@pytest.mark.parametrize("algo", ["pagerank", "adsorption"])
def test_numeric_algorithms_agree(algo, graph, test_machine):
    results = []
    for _, factory in ENGINES:
        prog = make_program(algo, graph, tolerance=1e-7)
        results.append(factory(test_machine).run(graph, prog))
    for other in results[1:]:
        assert states_close(results[0], other, rtol=1e-3, atol=1e-3), (
            f"{other.engine} disagrees on {algo}"
        )


@pytest.mark.parametrize("algo", ["sssp"])
def test_exact_algorithms_agree(algo, weighted_graph, test_machine):
    results = []
    for _, factory in ENGINES:
        prog = make_program(algo, weighted_graph)
        results.append(factory(test_machine).run(weighted_graph, prog))
    base = results[0].states
    for other in results[1:]:
        assert np.array_equal(
            np.isfinite(base), np.isfinite(other.states)
        ), f"{other.engine} reachability differs"
        finite = np.isfinite(base)
        assert np.allclose(base[finite], other.states[finite]), (
            f"{other.engine} distances differ"
        )


@pytest.mark.parametrize("algo", ["kcore", "bfs", "wcc"])
def test_discrete_algorithms_agree(algo, graph, test_machine):
    results = []
    for _, factory in ENGINES:
        prog = make_program(algo, graph)
        results.append(factory(test_machine).run(graph, prog))
    base = results[0].states
    for other in results[1:]:
        finite_match = np.array_equal(
            np.isfinite(base), np.isfinite(other.states)
        )
        assert finite_match, f"{other.engine} differs on {algo}"
        finite = np.isfinite(base)
        assert np.array_equal(base[finite], other.states[finite]), (
            f"{other.engine} differs on {algo}"
        )


def test_sequential_oracle_agrees(graph, test_machine):
    from repro.baselines.sequential import sequential_topological_run

    prog = make_program("pagerank", graph, tolerance=1e-7)
    seq = sequential_topological_run(graph, prog)
    par = DiGraphEngine(test_machine).run(
        graph, make_program("pagerank", graph, tolerance=1e-7)
    )
    assert np.allclose(seq.states, par.states, rtol=1e-3, atol=1e-3)
