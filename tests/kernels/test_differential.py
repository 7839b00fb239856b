"""Differential tests: vectorized kernels vs per-vertex step updates.

Every registered algorithm runs on every fixture graph against bulk-sync
with its batch kernels off — its one round looping the step kernel per
vertex — the differential reference:

- **bulk-sync**: the engine is Jacobi against a round-start snapshot, so
  the vectorized kernel is *exactly* the same computation. States must
  be bit-identical and every round record must match.
- **digraph-t**: its vertex-centric pass is Gauss-Seidel in id order
  within a partition (later vertices see earlier in-pass writes), the
  reference is Jacobi per round. Discrete algorithms (sssp, bfs, wcc,
  reachability, kcore) still reach bit-identical fixed points; numeric
  contractions (pagerank, ppr, adsorption) agree within the convergence
  tolerance band.
"""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.baselines.bulk_sync import BulkSyncConfig, BulkSyncEngine
from repro.bench.runner import make_engine
from repro.graph.builder import from_edges
from repro.graph.generators import random_directed, scc_profile_graph
from repro.kernels import has_vectorized_kernel, registered_program_classes

ALGOS = (
    "pagerank",
    "ppr",
    "adsorption",
    "sssp",
    "bfs",
    "wcc",
    "reachability",
    "kcore",
)

#: Fixed points of these algorithms are reached by discrete relaxations,
#: so even a different update order (Jacobi vs Gauss-Seidel) lands on
#: bit-identical states.
DISCRETE = {"sssp", "bfs", "wcc", "reachability", "kcore"}


def _graphs():
    """Seeded graphs covering the structural corner cases.

    - a uniform random graph (general case),
    - a multi-SCC graph with a giant component and periphery,
    - a graph with dangling vertices (no in- or out-edges at all) plus
      self-referential structure, built from an explicit edge list.
    """
    dangling_edges = [
        (0, 1),
        (1, 2),
        (2, 0),
        (2, 3),
        (4, 3),
        (4, 1),
    ]
    return [
        ("random", random_directed(60, 300, seed=11)),
        (
            "multi-scc",
            scc_profile_graph(
                n=80,
                avg_degree=3.0,
                giant_scc_fraction=0.4,
                avg_distance=4.0,
                seed=5,
            ),
        ),
        # vertices 5..7 are dangling (degree zero); vertex 3 is a sink.
        ("dangling", from_edges(dangling_edges, num_vertices=8)),
    ]


GRAPHS = _graphs()


def _run_bulk_sync(graph, algo, machine, vectorized, max_rounds=100000):
    engine = BulkSyncEngine(
        machine,
        BulkSyncConfig(
            use_vectorized_kernels=vectorized, max_rounds=max_rounds
        ),
    )
    program = make_program(algo, graph)
    return engine.run(graph, program, graph_name="diff")


def _run_digraph_t(graph, algo, machine):
    engine = make_engine("digraph-t", machine)
    program = make_program(algo, graph)
    return engine.run(graph, program, graph_name="diff")


def test_every_registered_algorithm_is_covered():
    """The ALGOS list exercises every program with a vectorized kernel."""
    graph = random_directed(10, 20, seed=0)
    programs = [make_program(a, graph) for a in ALGOS]
    assert set(registered_program_classes()) <= {type(p) for p in programs}
    for program in programs:
        assert has_vectorized_kernel(program), type(program).__name__


@pytest.mark.parametrize("graph_name,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
@pytest.mark.parametrize("algo", ALGOS)
def test_bulk_sync_bit_identical(algo, graph_name, graph, test_machine):
    scalar = _run_bulk_sync(graph, algo, test_machine, vectorized=False)
    batched = _run_bulk_sync(graph, algo, test_machine, vectorized=True)

    assert scalar.converged and batched.converged
    assert scalar.rounds == batched.rounds
    assert np.array_equal(scalar.states, batched.states)
    assert scalar.round_records == batched.round_records


@pytest.mark.parametrize("algo", ALGOS)
def test_bulk_sync_round_by_round(algo, test_machine):
    """Truncated runs agree at *every* round, not just at the fixed point.

    Capping max_rounds below convergence and comparing the (partial)
    trajectories would hide order-dependent divergence that happens to
    cancel by convergence; instead both runs go to completion and the
    per-round records — which include the exact vertex-update counts and
    active fractions of each round — are compared pairwise.
    """
    graph = random_directed(40, 200, seed=23)
    scalar = _run_bulk_sync(graph, algo, test_machine, vectorized=False)
    batched = _run_bulk_sync(graph, algo, test_machine, vectorized=True)
    assert len(scalar.round_records) == len(batched.round_records)
    for sr, br in zip(scalar.round_records, batched.round_records):
        assert sr == br


@pytest.mark.parametrize("graph_name,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
@pytest.mark.parametrize("algo", ALGOS)
def test_digraph_t_fixed_point(algo, graph_name, graph, test_machine):
    jacobi = _run_bulk_sync(graph, algo, test_machine, vectorized=False)
    gauss_seidel = _run_digraph_t(graph, algo, test_machine)

    assert jacobi.converged and gauss_seidel.converged
    if algo in DISCRETE:
        assert np.array_equal(jacobi.states, gauss_seidel.states)
    else:
        # Jacobi-per-round vs Gauss-Seidel-per-pass: same contraction,
        # same fixed point up to the convergence tolerance band.
        np.testing.assert_allclose(
            jacobi.states, gauss_seidel.states, rtol=0.0, atol=5e-3
        )


@pytest.mark.parametrize("algo", ALGOS)
def test_bulk_sync_accounting_identical(algo, test_machine):
    """Batching must not move any modeled-cost counter.

    The paper figures are computed from these counters; the vectorized
    path exists to speed the simulation up, not to change the model.
    """
    graph = scc_profile_graph(
        n=80, avg_degree=3.0, giant_scc_fraction=0.4,
        avg_distance=4.0, seed=5,
    )
    scalar = _run_bulk_sync(graph, algo, test_machine, vectorized=False)
    batched = _run_bulk_sync(graph, algo, test_machine, vectorized=True)
    s, b = scalar.stats, batched.stats
    for field in (
        "apply_calls",
        "edge_traversals",
        "vertex_updates",
        "global_load_bytes",
        "compute_time_s",
        "transfer_time_s",
    ):
        assert getattr(s, field) == getattr(b, field), field
