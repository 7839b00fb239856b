"""Exhaustive smoke matrix: every algorithm on every engine on two graph
classes (web-like and social-like), asserting convergence and basic
counter sanity. Catches regressions in any engine/program pairing."""

from functools import partial

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.baselines.async_engine import AsyncEngine
from repro.baselines.bulk_sync import BulkSyncEngine
from repro.bench.runner import make_engine
from repro.core.engine import DiGraphEngine
from repro.graph.generators import scc_profile_graph, with_random_weights

pytestmark = pytest.mark.slow

ENGINES = {
    "bulk-sync": BulkSyncEngine,
    "async": AsyncEngine,
    "digraph-t": partial(make_engine, "digraph-t"),
    "digraph-w": partial(make_engine, "digraph-w"),
    "digraph": DiGraphEngine,
}

ALGOS = ("pagerank", "adsorption", "sssp", "kcore", "bfs", "wcc",
         "ppr", "reachability")


@pytest.fixture(scope="module")
def graphs():
    web = scc_profile_graph(120, 4.0, 0.4, 8.0, seed=31)
    social = scc_profile_graph(120, 7.0, 0.8, 3.0, seed=32)
    return {
        "web": web,
        "web-weighted": with_random_weights(web, seed=33),
        "social": social,
        "social-weighted": with_random_weights(social, seed=34),
    }


@pytest.mark.parametrize("engine_name", list(ENGINES))
@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("kind", ["web", "social"])
def test_cell(engine_name, algo, kind, graphs, test_machine):
    graph = graphs[f"{kind}-weighted"] if algo == "sssp" else graphs[kind]
    program = make_program(algo, graph)
    result = ENGINES[engine_name](test_machine).run(
        graph, program, graph_name=kind
    )
    assert result.converged
    assert result.states.shape == (graph.num_vertices,)
    assert not np.isnan(result.states).any()
    assert result.stats.apply_calls >= 0
    assert result.processing_time_s >= 0
