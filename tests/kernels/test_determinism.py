"""Determinism regression: identical runs produce identical traces.

Running any engine twice with the same graph, program parameters, and
``MachineSpec`` must yield the same final states, the same
:class:`RoundRecord` sequence, and the same modeled counters — there is
no hidden global state (RNG, caches warmed by the first run, dict
ordering) leaking between runs. This pins down the reproducibility
claim the differential suite relies on: "scalar vs vectorized" is only
meaningful if "scalar vs scalar" is exact.
"""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.bench.runner import make_engine
from repro.graph.generators import scc_profile_graph

ENGINES = (
    "bulk-sync", "bulk-sync-vec", "async", "digraph", "digraph-t",
    "digraph-w",
)


@pytest.fixture(scope="module")
def graph():
    return scc_profile_graph(
        n=120, avg_degree=3.0, giant_scc_fraction=0.4,
        avg_distance=4.0, seed=9,
    )


def _run(graph, engine_name, machine, algo="pagerank"):
    engine = make_engine(engine_name, machine)
    program = make_program(algo, graph)
    return engine.run(graph, program, graph_name="determinism")


@pytest.mark.parametrize("engine_name", ENGINES)
def test_run_twice_identical(engine_name, graph, test_machine):
    first = _run(graph, engine_name, test_machine)
    second = _run(graph, engine_name, test_machine)

    assert np.array_equal(first.states, second.states)
    assert first.rounds == second.rounds
    assert first.converged == second.converged
    assert first.round_records == second.round_records
    for field in (
        "vertex_updates",
        "apply_calls",
        "edge_traversals",
        "global_load_bytes",
        "compute_time_s",
        "transfer_time_s",
        "h2d_bytes",
        "d2h_bytes",
        "p2p_bytes",
    ):
        assert getattr(first.stats, field) == getattr(
            second.stats, field
        ), field
