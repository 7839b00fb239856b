"""Golden fingerprints of everything a DiGraph-family run produces.

``tests/verify/golden_digests.json`` pins final states; this file pins
the *trajectory* as well: every ``MachineStats`` counter and the
``round_records`` of ``digraph`` / ``digraph-w`` / ``digraph-t`` on 8
algorithms x {1, 4} GPUs x two stand-ins, one mid-run GPU kill under a
recovery policy, and one warm-started run. The fingerprints in
``execution_fingerprints.json`` were captured on the commit *before* the
path walk became a table-driven partition pass (PR 14), by running this
file with ``PYTHONPATH`` at that commit's ``src`` — so a mismatch here
means the rewrite, or a later change, moved an update, an order or a
counter, not just a clock. Three more cells — a straggler re-dispatch,
replica batches dropped and corrupted under a recovery policy, and
advance execution — were captured the same way on the commit before the
round's pricing, scheduling, replica messages and activation delivery
became array passes.
"""

import functools
import hashlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.bench.runner import make_engine
from repro.core.engine import DiGraphConfig, DiGraphEngine
from repro.faults import (
    CORRUPT,
    DROP,
    ComputeFault,
    FaultInjector,
    FaultPlan,
    RecoveryPolicy,
    SyncFault,
)
from repro.gpu.config import SCALED_MACHINE
from repro.graph import datasets
from repro.verify.oracle import ALL_ALGORITHMS

from tests.pinned import load_pinned

GOLDEN_PATH = Path(__file__).with_name("execution_fingerprints.json")

#: A long-distance web graph (deep sketch, small giant SCC) and a dense
#: social one (shallow, one giant multi-partition SCC): the two regimes
#: the partition pass behaves differently in (quiescence vs one sweep).
GRAPHS = ("webbase", "twitter")
SCALE = 0.3
ENGINES = ("digraph", "digraph-w", "digraph-t")
GPU_COUNTS = (1, 4)

CASES = [
    (graph_name, algo, engine_name, gpus)
    for graph_name in GRAPHS
    for algo in ALL_ALGORITHMS
    for engine_name in ENGINES
    for gpus in GPU_COUNTS
]


def _key(graph_name, algo, engine_name, gpus):
    return f"{graph_name}/{algo}/{engine_name}/gpus{gpus}"


@functools.lru_cache(maxsize=None)
def _graph(graph_name, weighted):
    return datasets.load(graph_name, scale=SCALE, weighted=weighted)


@functools.lru_cache(maxsize=None)
def _preprocessed(graph_name, weighted):
    # Preprocessing is the same for the three variants and every GPU
    # count, and shared across runs the way a batch of algorithms over
    # one graph shares it.
    return make_engine("digraph", SCALED_MACHINE).preprocess(
        _graph(graph_name, weighted)
    )


def _sha(payload):
    return hashlib.sha256(payload).hexdigest()


def fingerprint(result):
    """Digests of the final states, all counters and the round log."""
    stats = {f.name: getattr(result.stats, f.name) for f in fields(result.stats)}
    for name, value in stats.items():
        if isinstance(value, dict):
            stats[name] = sorted(value.items())
    records = [
        (
            r.round_index,
            r.partitions_processed,
            r.partitions_convergent,
            r.active_fraction_nonconvergent,
            r.vertex_updates,
        )
        for r in result.round_records
    ]
    return {
        "states": _sha(np.ascontiguousarray(result.states).tobytes()),
        "stats": _sha(repr(sorted(stats.items())).encode()),
        "round_records": _sha(repr(records).encode()),
        "rounds": result.rounds,
        "vertex_updates": result.stats.vertex_updates,
    }


def _run(graph_name, algo, engine_name, gpus, engine=None, **run_kwargs):
    weighted = algo == "sssp"
    graph = _graph(graph_name, weighted)
    if engine is None:
        engine = make_engine(
            engine_name, replace(SCALED_MACHINE, num_gpus=gpus)
        )
    result = engine.run(
        graph,
        make_program(algo, graph),
        preprocessed=_preprocessed(graph_name, weighted),
        graph_name=graph_name,
        **run_kwargs,
    )
    assert result.converged
    return result


def _recovery_cell():
    """A GPU dies in the third round's compute wave; the run rolls back,
    redistributes and replays on three survivors."""
    plan = FaultPlan(compute_faults={2: ComputeFault(kill_gpu=1)})
    result = _run(
        "webbase",
        "pagerank",
        "digraph",
        4,
        fault_injector=FaultInjector(plan),
        recovery=RecoveryPolicy(checkpoint_interval=2),
    )
    assert result.stats.gpu_failures == 1
    return result


def _warm_start_cell():
    """Delta recompute: a converged pagerank vector with a perturbed
    region, only that region reactivated."""
    cold = _run("webbase", "pagerank", "digraph", 4)
    n = cold.states.size
    touched = np.arange(0, n, 7)
    values = cold.states.copy()
    values[touched] *= 1.5
    active = np.zeros(n, dtype=bool)
    active[touched] = True
    return _run(
        "webbase",
        "pagerank",
        "digraph",
        4,
        initial_values=values,
        initial_active=active,
    )


def _straggler_cell():
    """GPU 2 runs 50x slow in the second compute wave; the recovery
    policy times it out and re-dispatches its wave."""
    plan = FaultPlan(compute_faults={1: ComputeFault(slowdowns={2: 50.0})})
    result = _run(
        "webbase",
        "pagerank",
        "digraph",
        4,
        fault_injector=FaultInjector(plan),
        recovery=RecoveryPolicy(),
    )
    assert result.stats.straggler_redispatches == 1
    return result


def _sync_faults_cell():
    """Two replica batches dropped and one corrupted in flight; the
    recovery policy detects each and resends it."""
    plan = FaultPlan(
        sync_faults={
            0: SyncFault(DROP),
            3: SyncFault(CORRUPT),
            7: SyncFault(DROP),
        }
    )
    result = _run(
        "twitter",
        "pagerank",
        "digraph",
        4,
        fault_injector=FaultInjector(plan),
        recovery=RecoveryPolicy(),
    )
    assert result.stats.dropped_replica_batches == 2
    assert result.stats.corrupted_replica_batches == 1
    assert result.stats.sync_retries == 3
    return result


def _advance_cell():
    """Advance execution on: idle GPUs take active partitions of
    groups whose predecessors are still active."""
    spec = replace(SCALED_MACHINE, num_gpus=4)
    engine = DiGraphEngine(spec, DiGraphConfig(advance_factor=1))
    return _run("webbase", "pagerank", "digraph", 4, engine=engine)


SPECIAL_CELLS = {
    "webbase/pagerank/digraph/gpus4/recovery": _recovery_cell,
    "webbase/pagerank/digraph/gpus4/warm-start": _warm_start_cell,
    "webbase/pagerank/digraph/gpus4/straggler": _straggler_cell,
    "twitter/pagerank/digraph/gpus4/sync-faults": _sync_faults_cell,
    "webbase/pagerank/digraph/gpus4/advance": _advance_cell,
}


@pytest.fixture(autouse=True)
def invariants_hold_on_every_cell(monkeypatch):
    """Every run of this module — each golden cell, the GPU-kill
    rollback, the warm start — ends with the engine's own invariant
    checks green: both conservation ledgers and the activity counters
    against a recount of the active flags."""
    from repro.core import engine as engine_module

    finish_run = engine_module.finish_run

    def checked(run, *args):
        failed = [str(c) for c in run.invariant_checks() if not c.passed]
        assert not failed, failed
        return finish_run(run, *args)

    monkeypatch.setattr(engine_module, "finish_run", checked)


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
