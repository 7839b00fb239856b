"""Shared fixtures: small deterministic graphs, machine specs and run-cache
isolation."""

import numpy as np
import pytest

from repro.bench import runner as bench_runner
from repro.graph.builder import from_edges
from repro.graph.generators import (
    bowtie_graph,
    directed_cycle,
    directed_path,
    scc_profile_graph,
)
from repro.gpu.config import GPUSpec, MachineSpec
from repro.serve import runner as serve_runner


@pytest.fixture
def figure1_graph():
    """The paper's Fig. 1 example graph (15 vertices, 6 partitions).

    Edges transcribed from the running example: the chain v2..v5, the
    hot region v3-v6-v7-v8, the cycle v6-v7-v13-v14-v6, and the
    periphery (v0, v1 upstream; v9..v12 downstream of v8).
    """
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5),          # B1 chain
        (3, 6), (6, 7), (7, 8),                          # hot path
        (8, 9), (8, 10), (10, 11), (11, 12),             # B3/B6 periphery
        (7, 13), (13, 14), (14, 6),                      # cycle back to v6
    ]
    return from_edges(edges, num_vertices=15)


@pytest.fixture
def tiny_chain():
    return directed_path(6)


@pytest.fixture
def tiny_cycle():
    return directed_cycle(5)


@pytest.fixture
def bowtie():
    return bowtie_graph(core=6, in_tail=4, out_tail=4, seed=3)


@pytest.fixture
def medium_graph():
    """A ~200-vertex graph with a giant SCC and periphery."""
    return scc_profile_graph(
        n=200, avg_degree=4.0, giant_scc_fraction=0.5,
        avg_distance=5.0, seed=42,
    )


@pytest.fixture
def test_machine():
    """A small 2-GPU machine that keeps engine tests fast."""
    return MachineSpec(
        num_gpus=2,
        gpu=GPUSpec(num_smxs=2, warp_slots_per_smx=2),
        pcie_latency_s=1e-6,
        transfer_batch_bytes=1 << 20,
    )


@pytest.fixture
def isolated_caches():
    """No batch cell or serving context cached before the test is seen,
    and none it caches is left behind."""
    bench_runner.clear_cache()
    serve_runner.clear_context_cache()
    yield
    bench_runner.clear_cache()
    serve_runner.clear_context_cache()
