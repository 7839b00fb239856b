"""Golden fingerprints of everything a baseline run produces.

The twin of ``tests/core/test_execution_golden.py`` for the comparison
engines: final states, every ``MachineStats`` counter and the
``round_records`` of ``async`` and scalar ``bulk-sync`` on 8 algorithms
x {1, 4} GPUs x two stand-ins, the round-less ``sequential`` reference
on the same 16 graph x algorithm cells, and per faultable engine one
drop+corrupt cell without recovery (default poison on pagerank, a NaN
poison on sssp) and one mid-run GPU loss under a recovery policy. The
fingerprints in ``execution_fingerprints.json`` were captured on the
commit *before* the engines moved from the per-edge
``gather``/``accumulate`` protocol to the fused step kernels (PR 16), by
running this file with ``PYTHONPATH`` at that commit's ``src`` — so a
mismatch here means a step kernel, a worklist or a read path moved an
update, an order, a counter or a float bit.
"""

import functools
from dataclasses import replace
from pathlib import Path

import pytest

from repro.algorithms import make_program
from repro.bench.runner import ENGINES, make_engine
from repro.faults import (
    ComputeFault,
    FaultInjector,
    FaultPlan,
    RecoveryPolicy,
    SyncFault,
)
from repro.gpu.config import SCALED_MACHINE
from repro.graph import datasets
from repro.verify.oracle import ALL_ALGORITHMS
from tests.core.test_execution_golden import fingerprint
from tests.pinned import load_pinned

GOLDEN_PATH = Path(__file__).with_name("execution_fingerprints.json")

GRAPHS = ("webbase", "twitter")
SCALE = 0.3
FAULTABLE_ENGINES = ("async", "bulk-sync")
GPU_COUNTS = (1, 4)

#: ``sequential`` models no machine, so it has no GPU axis (0 here).
CASES = [
    (graph_name, algo, engine_name, gpus)
    for graph_name in GRAPHS
    for algo in ALL_ALGORITHMS
    for engine_name, gpu_counts in (
        ("async", GPU_COUNTS),
        ("bulk-sync", GPU_COUNTS),
        ("sequential", (0,)),
    )
    for gpus in gpu_counts
]


def _key(graph_name, algo, engine_name, gpus):
    return f"{graph_name}/{algo}/{engine_name}/gpus{gpus}"


@functools.lru_cache(maxsize=None)
def _graph(graph_name, weighted):
    return datasets.load(graph_name, scale=SCALE, weighted=weighted)


def _run(graph_name, algo, engine_name, gpus, max_rounds=None, **run_kwargs):
    """One cell to convergence — or, under ``max_rounds``, to exactly
    that many rounds (a NaN-poisoned state never compares equal to
    itself, so such a run has no fixed point to reach)."""
    graph = _graph(graph_name, algo == "sssp")
    machine = replace(SCALED_MACHINE, num_gpus=max(gpus, 1))
    if max_rounds is None:
        engine = make_engine(engine_name, machine)
    else:
        row = ENGINES[engine_name]
        engine = row.constructor(machine, row.config(max_rounds=max_rounds))
    result = engine.run(
        graph,
        make_program(algo, graph),
        graph_name=graph_name,
        strict_convergence=max_rounds is None,
        **run_kwargs,
    )
    assert result.converged == (max_rounds is None)
    return result


def _sync_fault_cell(engine_name, algo, poison, max_rounds=None):
    """Replica pushes dropped and garbled with nothing to recover them:
    lost activations, and poison written after the round's updates."""
    kinds = ("drop", "corrupt", "corrupt", "drop", "corrupt")
    plan = FaultPlan(
        sync_faults={
            3 * i + 1: SyncFault(kind=kind, poison=poison)
            for i, kind in enumerate(kinds)
        }
    )
    injector = FaultInjector(plan)
    result = _run(
        "webbase", algo, engine_name, 4, max_rounds, fault_injector=injector
    )
    assert (
        result.stats.dropped_replica_batches,
        result.stats.corrupted_replica_batches,
    ) == (kinds.count("drop"), kinds.count("corrupt"))
    return result


def _gpu_loss_cell(engine_name):
    """A GPU dies in the third round; the run rolls back, redistributes
    its partitions and replays on three survivors."""
    plan = FaultPlan(compute_faults={2: ComputeFault(kill_gpu=1)})
    result = _run(
        "webbase",
        "pagerank",
        engine_name,
        4,
        fault_injector=FaultInjector(plan),
        recovery=RecoveryPolicy(checkpoint_interval=2),
    )
    assert result.stats.gpu_failures == 1
    return result


SPECIAL_CELLS = {}
for _engine in FAULTABLE_ENGINES:
    SPECIAL_CELLS[f"webbase/pagerank/{_engine}/gpus4/drop-corrupt"] = (
        functools.partial(_sync_fault_cell, _engine, "pagerank", 2.0 ** 60)
    )
    SPECIAL_CELLS[f"webbase/sssp/{_engine}/gpus4/drop-corrupt-nan"] = (
        functools.partial(
            _sync_fault_cell, _engine, "sssp", float("nan"), max_rounds=40
        )
    )
    SPECIAL_CELLS[f"webbase/pagerank/{_engine}/gpus4/gpu-loss"] = (
        functools.partial(_gpu_loss_cell, _engine)
    )


@pytest.fixture(scope="module")
def golden():
    return load_pinned(
        GOLDEN_PATH,
        lambda: {
            **{_key(*case): fingerprint(_run(*case)) for case in CASES},
            **{
                key: fingerprint(cell())
                for key, cell in SPECIAL_CELLS.items()
            },
        },
    )


@pytest.mark.parametrize("case", CASES, ids=lambda case: _key(*case))
def test_execution_fingerprint_pinned(golden, case):
    assert fingerprint(_run(*case)) == golden[_key(*case)]


@pytest.mark.parametrize("key", sorted(SPECIAL_CELLS))
def test_special_cell_fingerprint_pinned(golden, key):
    assert fingerprint(SPECIAL_CELLS[key]()) == golden[key]


def test_golden_file_covers_all_cases(golden):
    assert sorted(golden) == sorted(
        [_key(*case) for case in CASES] + list(SPECIAL_CELLS)
    )
