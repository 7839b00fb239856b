"""Every engine's converged output must satisfy its program's equations.

This uses the generic validator (repro.model.validate) rather than
per-algorithm ad-hoc checks — the strongest end-to-end correctness
statement the reproduction makes.
"""

from functools import partial

import pytest

from repro.algorithms import make_program
from repro.baselines.async_engine import AsyncEngine
from repro.baselines.bulk_sync import BulkSyncEngine
from repro.bench.runner import make_engine
from repro.core.engine import DiGraphEngine
from repro.graph.generators import scc_profile_graph, with_random_weights
from repro.model.validate import check_fixed_point

ENGINES = {
    "bulk-sync": BulkSyncEngine,
    "async": AsyncEngine,
    "digraph-t": partial(make_engine, "digraph-t"),
    "digraph-w": partial(make_engine, "digraph-w"),
    "digraph": DiGraphEngine,
}


@pytest.fixture(scope="module")
def graph():
    return scc_profile_graph(130, 4.0, 0.5, 5.0, seed=81)


@pytest.fixture(scope="module")
def weighted(graph):
    return with_random_weights(graph, seed=82)


@pytest.mark.parametrize("engine_name", list(ENGINES))
@pytest.mark.parametrize(
    "algo", ["pagerank", "adsorption", "sssp", "bfs", "kcore", "wcc"]
)
def test_fixed_point(engine_name, algo, graph, weighted, test_machine):
    target = weighted if algo == "sssp" else graph
    program = make_program(algo, target)
    result = ENGINES[engine_name](test_machine).run(target, program)
    report = check_fixed_point(
        make_program(algo, target), target, result.states
    )
    assert report.satisfied, f"{engine_name}/{algo}: {report}"
