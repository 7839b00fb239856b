"""Exactness of what the baselines' rounds read through: the
harness's vertex -> GPU array across recovery, and the async round's
per-GPU write-through lists against the staleness view they replace."""

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.baselines.async_engine import AsyncEngine, _AsyncRun
from repro.baselines.bulk_sync import _BulkSyncRun
from repro.baselines.common import BaselineFaultHarness
from repro.bench.runner import make_engine
from repro.faults import ComputeFault, FaultInjector, FaultPlan, RecoveryPolicy
from repro.gpu.config import SCALED_MACHINE
from repro.graph.generators import scc_profile_graph
from repro.model.state import StalenessView

FOUR_GPUS = replace(SCALED_MACHINE, num_gpus=4)


@pytest.fixture(scope="module")
def graph():
    return scc_profile_graph(260, 5.0, 0.6, 5.0, seed=9)


def per_partition_loop(run):
    """``vertex_gpu()`` as it was: one slice assignment per partition."""
    out = np.full(run.states.values.shape[0], -1, dtype=np.int64)
    for partition in run.partitions:
        out[partition.lo : partition.hi] = partition.gpu
    return out


@pytest.mark.parametrize("engine_name", ["async", "bulk-sync"])
def test_gpu_of_vertex_follows_gpu_loss_and_rollback(
    graph, monkeypatch, engine_name
):
    """A GPU dies mid-run: the harness rolls back to a checkpoint
    (``restore_scalars``) and re-places the dead GPU's partitions
    (``redistribute``). After either, and at the start of every round,
    the lookup array is the per-partition loop it replaced."""
    seen = {"redistribute": [], "restore_scalars": [], "run_round": []}

    def check(run, name):
        assert np.array_equal(run.gpu_of_vertex, per_partition_loop(run))
        assert run.vertex_gpu() is run.gpu_of_vertex
        seen[name].append(sorted(set(run.gpu_of_vertex.tolist())))

    def checked_after(name):
        method = getattr(BaselineFaultHarness, name)

        def wrapper(run, *args):
            result = method(run, *args)
            check(run, name)
            return result

        return wrapper

    run_class = _AsyncRun if engine_name == "async" else _BulkSyncRun
    run_round = run_class.run_round

    def checked_round(run, round_index):
        check(run, "run_round")
        run_round(run, round_index)

    for name in ("redistribute", "restore_scalars"):
        monkeypatch.setattr(BaselineFaultHarness, name, checked_after(name))
    monkeypatch.setattr(run_class, "run_round", checked_round)

    plan = FaultPlan(compute_faults={2: ComputeFault(kill_gpu=1)})
    result = make_engine(engine_name, FOUR_GPUS).run(
        graph,
        make_program("pagerank", graph),
        fault_injector=FaultInjector(plan),
        recovery=RecoveryPolicy(checkpoint_interval=2),
    )
    assert result.converged and result.stats.gpu_failures == 1
    # The rollback restored the four-GPU placement, the redistribution
    # then emptied GPU 1, and the rounds after it ran on three.
    assert seen["restore_scalars"] == [[0, 1, 2, 3]]
    assert seen["redistribute"] == [[0, 2, 3]]
    assert seen["run_round"][0] == [0, 1, 2, 3]
    assert seen["run_round"][-1] == [0, 2, 3]


@pytest.mark.parametrize("algo", ["pagerank", "sssp", "wcc"])
def test_async_write_through_lists_equal_the_views_after_every_pass(
    graph, monkeypatch, algo
):
    """After every partition pass of a four-GPU round, GPU g's list
    equals ``StalenessView(values, snapshot, gpu_of_vertex == g)``
    materialised afresh — the view the round used to read through."""
    checked = {"passes": 0, "gpus_with_updates": set()}
    run_round = _AsyncRun.run_round

    def check(run, snapshot):
        for gpu, reads in run.gpu_reads.items():
            view = StalenessView(
                run.states.values, snapshot, run.gpu_of_vertex == gpu
            )
            assert type(reads) is list
            assert np.array_equal(reads, view.as_array())
            if not np.array_equal(reads, snapshot):
                checked["gpus_with_updates"].add(gpu)

    def checked_round(run, round_index):
        snapshot = run.states.values.copy()
        stats = run.machine.stats
        note = stats.note_partition_processed

        # Called as each partition pass begins — so after the one before.
        def pass_boundary(pid):
            check(run, snapshot)
            checked["passes"] += 1
            note(pid)

        stats.note_partition_processed = pass_boundary
        try:
            run_round(run, round_index)
        finally:
            del stats.note_partition_processed
        check(run, snapshot)

    monkeypatch.setattr(_AsyncRun, "run_round", checked_round)
    result = AsyncEngine(FOUR_GPUS).run(graph, make_program(algo, graph))
    assert result.converged
    assert checked["passes"] == sum(result.stats.partition_processed.values())
    assert checked["gpus_with_updates"] == {0, 1, 2, 3}
