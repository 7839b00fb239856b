"""Whole-job crash/restart certification: a run killed at any injected
crash point (round boundary, mid-spill, mid-manifest-commit) must, after
``resume_run`` from the durable store, finish **bit-identical** to an
uninterrupted golden run — for every engine variant and for the serve
layer's query journal."""

import os

import pytest

from repro.errors import (
    CheckpointStoreError,
    ConfigurationError,
    InjectedCrashError,
)
from repro.faults import (
    ALL_CHAOS_ENGINES,
    CRASH_POINTS,
    CheckpointStore,
    FaultInjector,
    RecoveryPolicy,
    ServeJournal,
    crash_plan,
    crash_restart_sweep,
    resume_run,
    run_crash_restart_cell,
    run_serve_crash_restart_cell,
)
from repro.graph.generators import scc_profile_graph
from repro.gpu.config import GPUSpec, MachineSpec

SPEC = MachineSpec(
    num_gpus=2,
    gpu=GPUSpec(num_smxs=2, warp_slots_per_smx=2),
    pcie_latency_s=1e-6,
    transfer_batch_bytes=1 << 20,
)


@pytest.fixture(scope="module")
def crash_graph():
    return scc_profile_graph(
        n=120, avg_degree=4.0, giant_scc_fraction=0.5,
        avg_distance=5.0, seed=42,
    )


class TestCrashRestartCells:
    @pytest.mark.parametrize("engine_name", ALL_CHAOS_ENGINES)
    def test_every_engine_resumes_bit_identical(
        self, crash_graph, engine_name, tmp_path
    ):
        # pagerank runs many rounds, so every crash point fires before
        # convergence (sssp would converge before a round-1 crash).
        result = run_crash_restart_cell(
            crash_graph, "pagerank", str(tmp_path),
            crash_point="round-boundary", engine_name=engine_name,
            machine=SPEC,
        )
        assert result.passed, result.detail
        assert result.digest_match
        assert result.golden_digest == result.recovered_digest

    @pytest.mark.parametrize("crash_point", CRASH_POINTS)
    def test_every_crash_point_resumes_bit_identical(
        self, crash_graph, crash_point, tmp_path
    ):
        result = run_crash_restart_cell(
            crash_graph, "wcc", str(tmp_path),
            crash_point=crash_point, machine=SPEC,
        )
        assert result.passed, result.detail
        assert result.digest_match

    def test_crash_never_fired_is_loud_failure(
        self, crash_graph, tmp_path
    ):
        # sssp converges in very few rounds here; a round-boundary
        # crash scheduled past convergence must FAIL the cell (a
        # vacuous pass would certify nothing), not skip silently.
        result = run_crash_restart_cell(
            crash_graph, "sssp", str(tmp_path),
            crash_point="round-boundary", machine=SPEC,
            crash_round=10_000,
        )
        assert not result.passed
        assert "crash" in result.detail.lower()

    def test_sweep_all_cells_pass(self, crash_graph, tmp_path):
        results = crash_restart_sweep(
            crash_graph, ("pagerank",), engine_names=("digraph",),
            crash_points=CRASH_POINTS, machine=SPEC,
        )
        assert len(results) == len(CRASH_POINTS)
        assert all(r.passed for r in results), [
            r.detail for r in results if not r.passed
        ]


def _crash_and_resume(run_dir, engine_name, header):
    """Crash ``engine_name`` on cnr pagerank at round 2 under a durable
    store written with ``header``; the resumed run and its golden."""
    from repro.algorithms import make_program
    from repro.bench.runner import load_graph, make_engine
    from repro.gpu.config import SCALED_MACHINE

    graph = load_graph("cnr", "pagerank", 0.2)
    spec = SCALED_MACHINE
    golden = make_engine(engine_name, spec).run(
        graph, make_program("pagerank", graph), graph_name="cnr"
    )
    policy = RecoveryPolicy(
        durability="durable", run_dir=run_dir, checkpoint_interval=1,
    )
    CheckpointStore(run_dir).write_header({
        "mode": "engine", "algorithm": "pagerank",
        "dataset": "cnr", "scale": 0.2,
        "gpus": spec.num_gpus,
        "policy": {"durability": "durable", "checkpoint_interval": 1},
        **header,
    })
    injector = FaultInjector(crash_plan("round-boundary", crash_round=2))
    with pytest.raises(InjectedCrashError):
        make_engine(engine_name, spec).run(
            graph, make_program("pagerank", graph), graph_name="cnr",
            fault_injector=injector, recovery=policy,
        )
    return resume_run(run_dir), golden


class TestResumeRun:
    def test_resume_via_header_matches_golden(self, tmp_path):
        from repro.faults.chaos import state_digest

        resumed, golden = _crash_and_resume(
            str(tmp_path), "digraph", {"engine": "digraph"}
        )
        assert state_digest(resumed.states, 0.0) == state_digest(
            golden.states, 0.0
        )
        assert resumed.stats.rounds == golden.stats.rounds

    def test_an_old_vectorized_header_resumes(self, tmp_path):
        """Headers once recorded ``"vectorized": true`` for a bulk-sync
        run on the batch kernel; resume reads the engine name alone and
        finishes on the step kernel, which is bit-identical."""
        from repro.faults.chaos import state_digest

        resumed, golden = _crash_and_resume(
            str(tmp_path), "bulk-sync-vec",
            {"engine": "bulk-sync", "vectorized": True},
        )
        assert state_digest(resumed.states, 0.0) == state_digest(
            golden.states, 0.0
        )
        assert resumed.stats.rounds == golden.stats.rounds

    def test_resume_missing_header_is_structured(self, tmp_path):
        with pytest.raises(CheckpointStoreError) as err:
            resume_run(str(tmp_path))
        assert err.value.kind == "header-lost"

    def test_resume_rejects_non_engine_header(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.write_header({"mode": "serve"})
        with pytest.raises(ConfigurationError):
            resume_run(str(tmp_path))

    def test_resume_without_durable_checkpoint_is_structured(
        self, crash_graph, tmp_path
    ):
        # Header exists but the crash landed before the first durable
        # commit: resume must surface a structured store error, never
        # silently restart from round 0 as if nothing was lost.
        store = CheckpointStore(str(tmp_path))
        store.write_header({
            "mode": "engine", "engine": "digraph", "algorithm": "pagerank",
            "dataset": "cnr", "scale": 0.2, "gpus": 2,
            "policy": {"durability": "durable"},
        })
        with pytest.raises(CheckpointStoreError) as err:
            resume_run(str(tmp_path))
        assert err.value.kind == "manifest-lost"


class TestServeCrashRestart:
    def test_serve_resumes_bit_identical(self, crash_graph, tmp_path):
        result = run_serve_crash_restart_cell(
            crash_graph, str(tmp_path), algorithm="mixed",
            crash_launch=12, machine=SPEC,
        )
        assert result.passed, result.detail
        assert result.digest_match
        journal = os.path.join(str(tmp_path), "serve_journal.jsonl")
        assert os.path.exists(journal)

    def test_serve_crash_before_first_batch_still_resumes(
        self, crash_graph, tmp_path
    ):
        # Crash inside the very first batch: no journal lines exist,
        # so resume is a full re-serve — still digest-identical.
        result = run_serve_crash_restart_cell(
            crash_graph, str(tmp_path), algorithm="mixed",
            crash_launch=1, machine=SPEC,
        )
        assert result.passed, result.detail
        assert result.digest_match

    def test_corrupt_journal_fails_the_cell(
        self, crash_graph, tmp_path, monkeypatch
    ):
        """A journal corrupted between the crash and the restart makes
        the resumed leg raise ``CheckpointStoreError``; the cell reports
        it as a failed cell with ``error`` set, never as a traceback."""
        load = ServeJournal.load
        calls = []

        def corrupt_before_resume(journal):
            calls.append(journal.path)
            if len(calls) == 2:  # the resumed leg's load
                with open(journal.path, "rb") as fh:
                    lines = fh.read()
                assert lines, "the crashed leg journaled no batch"
                with open(journal.path, "wb") as fh:
                    fh.write(b"not a journal line\n" + lines)
            return load(journal)

        monkeypatch.setattr(ServeJournal, "load", corrupt_before_resume)
        result = run_serve_crash_restart_cell(
            crash_graph, str(tmp_path), algorithm="mixed",
            crash_launch=30, machine=SPEC,
        )
        assert len(calls) == 2
        assert not result.passed
        assert "CheckpointStoreError" in result.detail
        assert "serve journal line 0 corrupt" in result.error
