"""Reproduction of DiGraph (ASPLOS 2019): path-based iterative directed
graph processing on (simulated) multiple GPUs.

Quick start::

    from repro import DiGraphEngine, datasets, make_program

    graph = datasets.load("cnr")
    program = make_program("pagerank", graph)
    result = DiGraphEngine().run(graph, program, graph_name="cnr")
    print(result.summary())

Public surface:

- :mod:`repro.graph` — directed-graph substrate (CSR graphs, generators,
  the six paper-dataset stand-ins, SCC machinery, metrics);
- :mod:`repro.gpu` — the simulated multi-GPU machine;
- :mod:`repro.model` — the Gather-Apply-Scatter programming model;
- :mod:`repro.algorithms` — PageRank, adsorption, SSSP, k-core (+ BFS,
  WCC);
- :mod:`repro.core` — DiGraph itself (paths, dependency DAG, storage,
  scheduling, dispatch, engine);
- :mod:`repro.baselines` — Gunrock-like and Groute-like comparators and
  the sequential topological reference;
- :mod:`repro.bench` — result records, the engine registry (with the
  DiGraph-t / DiGraph-w ablation rows) and the per-figure experiment
  harness.
"""

from repro.algorithms import make_program
from repro.baselines import AsyncEngine, BulkSyncEngine
from repro.bench.results import ExecutionResult
from repro.core import DiGraphEngine
from repro.core.engine import DiGraphConfig
from repro.gpu.config import GPUSpec, MachineSpec
from repro.graph import DiGraphCSR, from_edges
from repro.graph import datasets

__version__ = "1.0.0"

__all__ = [
    "AsyncEngine",
    "BulkSyncEngine",
    "DiGraphCSR",
    "DiGraphConfig",
    "DiGraphEngine",
    "ExecutionResult",
    "GPUSpec",
    "MachineSpec",
    "datasets",
    "from_edges",
    "make_program",
    "__version__",
]
