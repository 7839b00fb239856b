"""Experiment runner: one entry point for every engine/algorithm/graph cell.

Every figure of the evaluation is a sweep over (engine, algorithm, graph,
machine) cells; :func:`run_cell` executes one cell and memoizes it so
figures sharing cells (e.g. Figs. 10-13 all need pagerank on all six
graphs) do not recompute them within a process.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.algorithms import make_program
from repro.baselines.async_engine import AsyncConfig, AsyncEngine
from repro.baselines.bulk_sync import BulkSyncConfig, BulkSyncEngine
from repro.baselines.sequential import SequentialEngine
from repro.bench.results import ExecutionResult
from repro.bench.schema import write_artifact_file
from repro.core.engine import DiGraphConfig, DiGraphEngine
from repro.core.variants import digraph_t, digraph_w
from repro.errors import ConfigurationError
from repro.gpu.config import SCALED_MACHINE, MachineSpec
from repro.graph import datasets


class EngineRow(NamedTuple):
    """One registry row: how a name becomes an engine."""

    constructor: Callable  #: ``(machine_spec, config) -> engine``
    config: Optional[type]  #: config dataclass (None: takes no config)
    pinned: Dict[str, object]  #: config fields this row fixes
    #: Runtime the row's round loop lives in — "digraph" (the path
    #: engine's) or "baseline" (the range-partitioned harness); None for
    #: the round-less sequential reference (Fig. 2d).
    family: Optional[str]


_VEC = {"use_vectorized_kernels": True}

#: The engine registry — the only place a name becomes a constructor —
#: in the order the paper's figures list the engines. A ``-vec`` row is
#: its scalar sibling with the vectorized batch kernels pinned on; only
#: bulk-sync has one, being the only Jacobi schedule (its one round runs
#: either the vectorized kernel or the step kernel behind the batch
#: interface; every other engine is Gauss-Seidel and runs the step
#: kernels).
ENGINES = {
    "sequential": EngineRow(SequentialEngine, None, {}, None),
    "bulk-sync": EngineRow(BulkSyncEngine, BulkSyncConfig, {}, "baseline"),
    "bulk-sync-vec": EngineRow(
        BulkSyncEngine, BulkSyncConfig, _VEC, "baseline"
    ),
    "async": EngineRow(AsyncEngine, AsyncConfig, {}, "baseline"),
    "digraph-t": EngineRow(digraph_t, DiGraphConfig, {}, "digraph"),
    "digraph-w": EngineRow(digraph_w, DiGraphConfig, {}, "digraph"),
    "digraph": EngineRow(DiGraphEngine, DiGraphConfig, {}, "digraph"),
}

#: Vectorized rows certify against their *scalar* sibling's golden run.
SCALAR_SIBLING = {
    name: name[: -len("-vec")]
    for name, row in ENGINES.items()
    if row.pinned == _VEC
}

#: All runnable scalar engines including the sequential reference, which
#: the figures exclude but the conformance harness cross-checks against.
ALL_ENGINE_NAMES = tuple(n for n in ENGINES if n not in SCALAR_SIBLING)

#: Engine names in the order the paper's figures list them.
ENGINE_NAMES = tuple(n for n in ALL_ENGINE_NAMES if ENGINES[n].family)

#: Engines the chaos harness drives from the DiGraph family (the fault
#: machinery lives in their shared runtime), the baseline comparators
#: under the same fault plans (they share the checkpoint manager through
#: ``RecoveryPolicy.make_checkpoint_manager``), and both.
CHAOS_ENGINES = tuple(
    n for n, row in ENGINES.items() if row.family == "digraph"
)
BASELINE_CHAOS_ENGINES = tuple(
    n for n, row in ENGINES.items() if row.family == "baseline"
)
ALL_CHAOS_ENGINES = CHAOS_ENGINES + BASELINE_CHAOS_ENGINES

#: Default benchmark scale; override with the REPRO_BENCH_SCALE env var.
DEFAULT_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))

_CACHE: Dict[Tuple, ExecutionResult] = {}


def make_engine(
    name: str,
    machine: Optional[MachineSpec] = None,
    n_workers: int = 1,
    vectorized: bool = False,
):
    """Build an engine by registry name.

    ``vectorized`` pins the vectorized batch kernels
    (:mod:`repro.kernels`) on, as a ``-vec`` row does, and reaches
    bulk-sync only, where it swaps the kernel its one round calls: the
    async baseline and the DiGraph family update one vertex at a time
    against what it can see now and have no batched formulation.
    """
    if name not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {name!r}; expected one of {tuple(ENGINES)}"
        )
    row = ENGINES[name]
    machine = machine or SCALED_MACHINE
    if row.config is None:
        return row.constructor(machine)
    fields = {"n_workers": n_workers, **row.pinned}
    if vectorized and hasattr(row.config, "use_vectorized_kernels"):
        fields.update(_VEC)
    return row.constructor(machine, row.config(**fields))


_GRAPH_CACHE: Dict[Tuple, object] = {}


def load_graph(graph_name: str, algo: str, scale: float):
    """Dataset stand-in; SSSP gets the weighted variant. Cached — the
    generators are deterministic but their distance calibration is not
    free, and every figure reuses the same graphs."""
    key = (graph_name, scale, algo == "sssp")
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = datasets.load(
            graph_name, scale=scale, weighted=(algo == "sssp")
        )
    return _GRAPH_CACHE[key]


def run_cell(
    engine_name: str,
    algo: str,
    graph_name: str,
    scale: float = DEFAULT_SCALE,
    num_gpus: Optional[int] = None,
    n_workers: int = 1,
    machine: Optional[MachineSpec] = None,
    use_cache: bool = True,
    graph=None,
    engine_factory: Optional[Callable] = None,
    vectorized: bool = False,
    recovery=None,
    fault_injector=None,
    resume: bool = False,
    program_kwargs: Optional[Dict] = None,
) -> ExecutionResult:
    """Run one (engine, algorithm, graph) cell, memoized per process.

    ``num_gpus`` overrides the GPU count of the (scaled) default machine —
    the Fig. 16 sweep. ``vectorized`` runs the batched kernels on
    bulk-sync (see :func:`make_engine`); ``recovery`` (a
    :class:`repro.faults.RecoveryPolicy`) turns on checkpointing knobs.
    ``fault_injector`` / ``resume`` / ``program_kwargs`` are the chaos
    harness's legs: a fault plan fired against the run, a restart from
    the policy's durable store, and non-default program parameters.
    Any of ``graph`` / ``engine_factory`` / ``recovery`` and those three
    bypass the memo cache — such cells are custom and must not alias
    standard cells.

    The key includes the machine spec: two cells that differ only in the
    simulated hardware are different cells, and the memoized
    :class:`ExecutionResult` (whose ``stats`` bundle is mutable and
    shared by every figure reading the cell) must never be served across
    that boundary. Serve cells
    (:func:`repro.serve.runner.run_serve_cell`) share this process
    cache under keys that start with the literal ``"serve"``, which no
    engine is named, so neither kind can shadow the other.
    """
    # Passed to ``engine.run`` only when set: the sequential reference
    # takes none of them.
    run_options: Dict[str, object] = {}
    if recovery is not None:
        run_options["recovery"] = recovery
    if fault_injector is not None:
        run_options["fault_injector"] = fault_injector
    if resume:
        run_options["resume"] = True
    custom = bool(
        graph is not None or engine_factory is not None
        or run_options or program_kwargs
    )
    spec = machine or SCALED_MACHINE
    key = (
        engine_name, algo, graph_name, scale, num_gpus, n_workers,
        vectorized, spec,
    )
    if use_cache and not custom and key in _CACHE:
        return _CACHE[key]

    if num_gpus is not None:
        spec = spec.scaled(num_gpus)
    if graph is None:
        graph = load_graph(graph_name, algo, scale)
    if engine_factory is not None:
        engine = engine_factory(spec)
    else:
        engine = make_engine(
            engine_name, spec, n_workers=n_workers, vectorized=vectorized
        )
    program = make_program(algo, graph, **(program_kwargs or {}))
    result = engine.run(
        graph, program, graph_name=graph_name, **run_options
    )
    if use_cache and not custom:
        _CACHE[key] = result
    return result


def clear_cache() -> None:
    """Forget memoized cells (tests use this for isolation)."""
    _CACHE.clear()


# ----------------------------------------------------------------------
# kernel microbenchmark
# ----------------------------------------------------------------------

#: Algorithms the kernel microbenchmark times by default — one linear
#: contraction (pagerank), one monotone relaxation (sssp), one symmetric
#: label propagation (wcc), and one structural filter (kcore).
KERNEL_BENCH_ALGOS = ("pagerank", "sssp", "wcc", "kcore")


def run_kernel_microbench(
    num_vertices: int = 50_000,
    num_edges: Optional[int] = None,
    seed: int = 7,
    algos: Sequence[str] = KERNEL_BENCH_ALGOS,
    machine: Optional[MachineSpec] = None,
    engine_name: str = "bulk-sync",
    out_path: Optional[str] = "BENCH_kernels.json",
) -> Dict:
    """Time scalar vs vectorized vertex updates on one synthetic graph.

    Runs each algorithm twice on the same ``random_directed`` graph — once
    with per-vertex scalar updates and once with the batched kernels —
    and records wall-clock seconds, per-round throughput, and whether the
    two runs reached bit-identical states. The scalar and vectorized runs
    execute the same modeled work (rounds, edge traversals, loads), so
    the speedup isolates the Python dispatch overhead the kernels remove.

    Writes the result dict as JSON to ``out_path`` (skipped when None)
    and returns it. Later PRs diff this file for a perf trajectory.

    Runs through the shared sweep runner (:mod:`repro.bench.sweep`) —
    each (algorithm, kernel mode) pair is one sweep cell over a seeded
    ``random_directed`` graph, with ``use_vectorized_kernels`` as the
    swept knob; bit-identical states are certified by comparing the
    cells' determinism digests.
    """
    from repro.bench.sweep import CellSpec, run_sweep_cell

    if num_edges is None:
        num_edges = 8 * num_vertices
    machine = machine or SCALED_MACHINE
    graph_spec = tuple(
        sorted(
            {
                "generator": "random_directed",
                "num_vertices": num_vertices,
                "num_edges": num_edges,
                "seed": seed,
            }.items()
        )
    )

    results = []
    for algo in algos:
        per_mode: Dict[str, Dict] = {}
        digests: Dict[str, str] = {}
        for mode, vectorized in (("scalar", False), ("vectorized", True)):
            cell = run_sweep_cell(
                CellSpec(
                    engine=engine_name,
                    algorithm=algo,
                    graph=graph_spec,
                    mode="run",
                    scale=1.0,
                    knobs={
                        "use_vectorized_kernels": vectorized,
                        "num_gpus": machine.num_gpus,
                    },
                ),
                seeds=(seed,),
            )
            wall = cell["wall_seconds"]["mean"]
            rounds = int(cell["metrics"]["rounds"]["mean"])
            edge_traversals = int(
                cell["metrics"]["edge_traversals"]["mean"]
            )
            digests[mode] = cell["digests"][str(seed)]
            per_mode[mode] = {
                "wall_seconds": wall,
                "rounds": rounds,
                "seconds_per_round": wall / max(rounds, 1),
                "edge_traversals": edge_traversals,
                "edges_per_second": edge_traversals / wall
                if wall > 0
                else 0.0,
                "converged": cell["converged"],
            }
        scalar_wall = per_mode["scalar"]["wall_seconds"]
        vectorized_wall = per_mode["vectorized"]["wall_seconds"]
        results.append(
            {
                "algorithm": algo,
                "scalar": per_mode["scalar"],
                "vectorized": per_mode["vectorized"],
                "speedup": scalar_wall / vectorized_wall
                if vectorized_wall > 0
                else 0.0,
                "states_equal": digests["scalar"] == digests["vectorized"],
            }
        )

    report = {
        "schema": "repro-bench-kernels",
        "schema_version": 1,
        "benchmark": "kernel-microbench",
        "engine": engine_name,
        "graph": {
            "generator": "random_directed",
            "num_vertices": num_vertices,
            "num_edges": num_edges,
            "seed": seed,
        },
        "machine": {
            "num_gpus": machine.num_gpus,
        },
        "results": results,
    }
    write_artifact_file(report, out_path)
    return report
