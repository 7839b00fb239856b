"""``repro resume --gpus N``: restart onto a *different* GPU count.

The durable scalars are bound to the machine shape the run crashed on,
so a different-count resume re-partitions instead of refusing: the
newest intact checkpoint's vertex state warm-starts a fresh engine on
the new machine, and the run's ``--graph-dir`` store is re-sharded on
disk for the new count. For monotone programs (wcc here) the fixed
point is placement-independent, so the resumed digest must still equal
the uninterrupted golden run's — bit for bit.
"""

import os
from dataclasses import asdict

import pytest

from repro.algorithms import make_program
from repro.bench.runner import make_engine
from repro.errors import ConfigurationError, InjectedCrashError
from repro.faults import (
    CheckpointStore,
    FaultInjector,
    RecoveryPolicy,
    crash_plan,
    resume_run,
)
from repro.faults.chaos import state_digest
from repro.gpu.config import GPUSpec, MachineSpec
from repro.graph.generators import scc_profile_graph
from repro.storage import ShardedGraph, graph_chunk_source, partition_graph

from tests.storage.conftest import graph_digest

SPEC = MachineSpec(
    num_gpus=2,
    gpu=GPUSpec(num_smxs=2, warp_slots_per_smx=2),
    pcie_latency_s=1e-6,
    transfer_batch_bytes=1 << 20,
)


def write_engine_header(run_dir, policy, graph_dir, engine="digraph"):
    """The header ``repro run --durability --graph-dir`` commits."""
    CheckpointStore(run_dir).write_header(
        {
            "mode": "engine",
            "engine": engine,
            "algorithm": "wcc",
            "dataset": "scc-profile",
            "scale": 1.0,
            "gpus": 2,
            "graph_dir": graph_dir,
            "policy": {
                k: v for k, v in asdict(policy).items() if k != "run_dir"
            },
        }
    )


@pytest.fixture(scope="module")
def crashed_run(tmp_path_factory):
    """A graph-dir run on 2 GPUs killed at round 3, plus its golden."""
    base = tmp_path_factory.mktemp("repartition-resume")
    graph = scc_profile_graph(
        n=120, avg_degree=4.0, giant_scc_fraction=0.5,
        avg_distance=5.0, seed=42,
    )
    graph_dir = str(base / "shards")
    partition_graph(
        graph_chunk_source(graph, chunk_edges=100), 2, graph_dir
    )
    run_graph = ShardedGraph(graph_dir).materialize()

    run_dir = str(base / "run")
    policy = RecoveryPolicy(durability="durable", run_dir=run_dir)
    write_engine_header(run_dir, policy, graph_dir)
    injector = FaultInjector(crash_plan("round-boundary", "digraph", 3))
    with pytest.raises(InjectedCrashError):
        make_engine("digraph", SPEC).run(
            run_graph,
            make_program("wcc", run_graph),
            graph_name="scc-profile",
            fault_injector=injector,
            recovery=policy,
        )

    golden = make_engine("digraph", SPEC.scaled(4)).run(
        run_graph, make_program("wcc", run_graph),
        graph_name="scc-profile",
    )
    return {
        "graph": graph,
        "graph_dir": graph_dir,
        "run_dir": run_dir,
        "golden_digest": state_digest(golden.states, 0.0),
    }


class TestRepartitionResume:
    def test_resume_onto_more_gpus_matches_golden(self, crashed_run):
        result = resume_run(
            crashed_run["run_dir"], machine=SPEC, gpus=4
        )
        assert result.converged
        assert (
            state_digest(result.states, 0.0)
            == crashed_run["golden_digest"]
        )

    def test_resharded_store_written_under_run_dir(self, crashed_run):
        resume_run(crashed_run["run_dir"], machine=SPEC, gpus=4)
        new_dir = os.path.join(
            crashed_run["run_dir"], "repartition-4gpus"
        )
        assert os.path.isdir(new_dir)
        resharded = ShardedGraph(new_dir)
        assert resharded.num_parts == 4
        # Re-sharding for the new count preserved the graph bit for bit.
        assert graph_digest(resharded.materialize()) == graph_digest(
            crashed_run["graph"]
        )

    def test_resume_onto_fewer_gpus(self, crashed_run):
        result = resume_run(
            crashed_run["run_dir"], machine=SPEC, gpus=1
        )
        assert result.converged
        assert (
            state_digest(result.states, 0.0)
            == crashed_run["golden_digest"]
        )

    def test_rejects_nonpositive_gpu_count(self, crashed_run):
        with pytest.raises(ConfigurationError, match="gpus"):
            resume_run(crashed_run["run_dir"], machine=SPEC, gpus=0)

    def test_same_count_resume_unchanged(self, crashed_run):
        # gpus equal to the header's takes the ordinary resume=True
        # path — restart from the last checkpoint, graph reloaded from
        # the graph_dir store.
        result = resume_run(
            crashed_run["run_dir"], machine=SPEC, gpus=2
        )
        assert result.converged
        assert (
            state_digest(result.states, 0.0)
            == crashed_run["golden_digest"]
        )


class TestRepartitionResumeRejections:
    def test_non_digraph_engine_refused(self, tmp_path):
        run_dir = str(tmp_path / "run")
        policy = RecoveryPolicy(durability="durable", run_dir=run_dir)
        write_engine_header(
            run_dir, policy, graph_dir=None, engine="bulk-sync"
        )
        with pytest.raises(ConfigurationError, match="digraph"):
            resume_run(run_dir, machine=SPEC, gpus=4)
