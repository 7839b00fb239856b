"""Golden fingerprints of everything ``MultiSourceSolver.solve`` produces.

``tests/serve/test_lane_equivalence.py`` certifies final states against
the scalar reference; this file pins the *trajectory* too: per lane
digests, ``rounds``, ``lane_rounds``, ``launches``, ``edge_lane_work``,
the modeled clock to the last bit, the brownout certificate
(``lane_converged`` / ``lane_residuals``) and the exact sequence of
launch indices ``fault_hook`` is called with, for the 4 servable
algorithms x {1, 3, 8} lanes x two stand-ins x {unbudgeted, a
``time_budget_s`` that stops mid-solve}, plus one launch-6 GPU kill per
algorithm at 1 and at 8 lanes. The fingerprints in
``solve_fingerprints.json`` were captured
on the commit *before* the solver's scan loop became a pending-flag
sweep (PR 20), by running this file with ``PYTHONPATH`` at that commit's
``src`` — so a mismatch here means the rewrite, or a later change, moved
a launch, a write or a counter, not just a clock. The one-lane kill
rows were added later, captured the same way on the commit before
one-query solves ran the 1-D kernel.
"""

import functools
from pathlib import Path

import pytest

from repro.errors import GPULostError
from repro.gpu.config import SCALED_MACHINE
from repro.graph import datasets
from repro.serve.context import ServingContext
from repro.serve.query import (
    SERVE_ALGORITHMS,
    generate_trace,
    make_query_program,
)
from repro.serve.solver import MultiSourceSolver

from tests.pinned import load_pinned

GOLDEN_PATH = Path(__file__).with_name("solve_fingerprints.json")

#: A long-distance web graph (29 layer batches here, sparse frontiers)
#: and a dense social one (few layers, wide launches).
GRAPHS = ("webbase", "twitter")
SCALE = 0.3
LANES = (1, 3, 8)
#: Fraction of the unbudgeted solve's modeled time a budgeted cell gets.
BUDGET_FRACTION = 0.4
KILL_LAUNCH = 6
#: Lane counts of the kill cells: the one-query (1-D) and a k-lane path.
KILL_LANES = (1, 8)

CASES = [
    (graph_name, algo, lanes, budgeted)
    for graph_name in GRAPHS
    for algo in SERVE_ALGORITHMS
    for lanes in LANES
    for budgeted in (False, True)
]


def _key(graph_name, algo, lanes, budgeted):
    return f"{graph_name}/{algo}/lanes{lanes}/" + (
        "budgeted" if budgeted else "full"
    )


@functools.lru_cache(maxsize=None)
def _context(graph_name):
    graph = datasets.load(graph_name, scale=SCALE, weighted=True)
    return ServingContext(graph, SCALED_MACHINE, graph_name=graph_name)


def _programs(graph_name, algo, lanes):
    trace = generate_trace(
        _context(graph_name).graph.num_vertices,
        num_queries=lanes,
        seed=20 + lanes,
        algorithms=(algo,),
    )
    return [make_query_program(q) for q in trace]


def _solve(graph_name, algo, lanes, budget=None):
    hooked = []
    solver = MultiSourceSolver(
        _context(graph_name),
        _programs(graph_name, algo, lanes),
        fault_hook=hooked.append,
    )
    return solver.solve(time_budget_s=budget), hooked


def fingerprint(graph_name, algo, lanes, budgeted):
    result, hooked = _solve(graph_name, algo, lanes)
    if budgeted:
        result, hooked = _solve(
            graph_name, algo, lanes, BUDGET_FRACTION * result.modeled_seconds
        )
    return {
        "digests": list(result.digests),
        "rounds": result.rounds,
        "lane_rounds": list(result.lane_rounds),
        "launches": result.launches,
        "edge_lane_work": result.edge_lane_work,
        "modeled_seconds": result.modeled_seconds.hex(),
        "converged": result.converged,
        "lane_converged": list(result.lane_converged),
        "lane_residuals": [r.hex() for r in result.lane_residuals],
        "fault_hook_calls": hooked,
    }


def kill_fingerprint(algo, lanes):
    """A GPU dies at the seventh launch of a web-graph solve."""

    def hook(launch):
        if launch == KILL_LAUNCH:
            raise GPULostError("killed", gpu_id=0)

    solver = MultiSourceSolver(
        _context("webbase"), _programs("webbase", algo, lanes), fault_hook=hook
    )
    with pytest.raises(GPULostError) as info:
        solver.solve()
    return {
        "launches_completed": info.value.launches_completed,
        "modeled_seconds_completed":
            info.value.modeled_seconds_completed.hex(),
    }


def _kill_key(algo, lanes):
    return f"webbase/{algo}/lanes{lanes}/kill{KILL_LAUNCH}"


KILL_CASES = [
    (algo, lanes) for algo in SERVE_ALGORITHMS for lanes in KILL_LANES
]


@pytest.fixture(scope="module")
def golden():
    return load_pinned(
        GOLDEN_PATH,
        lambda: {
            **{_key(*case): fingerprint(*case) for case in CASES},
            **{
                _kill_key(*case): kill_fingerprint(*case)
                for case in KILL_CASES
            },
        },
    )


@pytest.mark.parametrize("case", CASES, ids=lambda case: _key(*case))
def test_solve_fingerprint_pinned(golden, case):
    assert fingerprint(*case) == golden[_key(*case)]


@pytest.mark.parametrize("case", KILL_CASES, ids=lambda case: _kill_key(*case))
def test_kill_fingerprint_pinned(golden, case):
    assert kill_fingerprint(*case) == golden[_kill_key(*case)]


def test_golden_file_covers_all_cases(golden):
    assert sorted(golden) == sorted(
        [_key(*case) for case in CASES]
        + [_kill_key(*case) for case in KILL_CASES]
    )


def test_budgeted_cells_stop_mid_solve(golden):
    """The budget column is not vacuous: every budgeted cell stops with
    a lane unconverged and pays the residual pass."""
    for case in CASES:
        if case[3]:
            cell = golden[_key(*case)]
            full = golden[_key(*case[:3], False)]
            assert not cell["converged"], _key(*case)
            assert cell["rounds"] < full["rounds"], _key(*case)
