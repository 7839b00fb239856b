"""Golden fingerprints of chaos cells of all five kinds.

Every :class:`~repro.faults.chaos.ChaosCellResult` field of 27 cells on
the 120-vertex ``scc_profile_graph(seed=42)`` is pinned in
``chaos_fingerprints.json``: engine GPU-kill cells (``digraph``,
``bulk-sync-vec`` and ``async`` x pagerank / wcc / sssp under one
plan, plus a ``disable_recovery`` cell), a storm grid with its serve
cell, serve kill / replay cells (replay off, a kill index that never
fires, an exhausted replay budget, an overloaded storm), and a
crash-restart grid with its serve row plus a vacuous engine and a
vacuous serve crash. Passing rows pin every field; failing rows pin
every field but the prose ``detail``. The fingerprints were captured
before the five cell harnesses became rows of one runner, so a mismatch
means a cell's legs, counters, digests or verdict moved.
"""

import dataclasses
import itertools
from pathlib import Path

import pytest

from repro.faults import (
    FaultPlan,
    chaos_sweep,
    crash_restart_sweep,
    run_chaos_cell,
    run_crash_restart_cell,
    run_serve_chaos_cell,
    run_serve_crash_restart_cell,
    run_serve_storm_cell,
)
from repro.graph.generators import scc_profile_graph
from repro.gpu.config import GPUSpec, MachineSpec

from tests.pinned import load_pinned

GOLDEN_PATH = Path(__file__).with_name("chaos_fingerprints.json")

SPEC = MachineSpec(
    num_gpus=2,
    gpu=GPUSpec(num_smxs=2, warp_slots_per_smx=2),
    pcie_latency_s=1e-6,
    transfer_batch_bytes=1 << 20,
)

#: The plan of ``tests/faults/test_chaos.py``: transient faults, replica
#: drops and corruptions, stragglers and one GPU death at round 0.
PLAN_OPTIONS = dict(
    transfer_fault_rate=0.05,
    sync_drop_rate=0.05,
    sync_corrupt_rate=0.05,
    straggler_rate=0.1,
    kill_gpu=1,
    kill_at_round=0,
)


def _plan():
    return FaultPlan.generate(3, SPEC.num_gpus, **PLAN_OPTIONS)


def _engine_case(engine, algorithm, **options):
    return lambda graph, run_dir: [
        run_chaos_cell(
            graph, algorithm, _plan(), engine_name=engine, machine=SPEC,
            **options,
        )
    ]


def _serve_case(cell, **options):
    return lambda graph, run_dir: [cell(graph, machine=SPEC, **options)]


CASES = {
    **{
        f"engine/{engine}/{algorithm}": _engine_case(engine, algorithm)
        for engine, algorithm in itertools.product(
            ("digraph", "bulk-sync-vec", "async"),
            ("pagerank", "wcc", "sssp"),
        )
    },
    "engine/digraph/pagerank/no-recovery": _engine_case(
        "digraph", "pagerank", disable_recovery=True
    ),
    "storm-sweep": lambda graph, run_dir: chaos_sweep(
        graph, ("pagerank", "wcc"), engine_names=("digraph",), seeds=(3,),
        machine=SPEC, storm=True,
        plan_options=dict(kills=2, flaps=1, flap_length=2),
        include_serve=True,
        serve_storm_options=dict(kills=2, num_queries=16),
    ),
    "serve/kill4": _serve_case(run_serve_chaos_cell, kill_launch=4),
    "serve/kill4/no-replay": _serve_case(
        run_serve_chaos_cell, kill_launch=4, max_replays=0
    ),
    "serve/kill10000": _serve_case(
        run_serve_chaos_cell, kill_launch=10_000
    ),
    "serve-storm/exhausted-budget": _serve_case(
        run_serve_storm_cell, seed=3, num_queries=16, kills=3,
        first_kill_at=2, kill_spacing=1, max_replays=1,
    ),
    "serve-storm/overloaded": _serve_case(
        run_serve_storm_cell, seed=3, num_queries=16, kills=2,
        deadline_ms=0.05, max_queue=4, brownout=True,
    ),
    "crash-sweep": lambda graph, run_dir: crash_restart_sweep(
        graph, ("pagerank",), engine_names=("digraph", "bulk-sync"),
        machine=SPEC, include_serve=True,
    ),
    "crash/sssp/round10000": lambda graph, run_dir: [
        run_crash_restart_cell(
            graph, "sssp", run_dir, machine=SPEC, crash_round=10_000
        )
    ],
    "serve-crash/launch10000": lambda graph, run_dir: [
        run_serve_crash_restart_cell(
            graph, run_dir, crash_launch=10_000, machine=SPEC
        )
    ],
}

#: The rows whose crash leg never dies: a runner that stopped flagging
#: a completed crash leg as vacuous would pass them.
VACUOUS_CRASH_CASES = ("crash/sssp/round10000", "serve-crash/launch10000")


pytestmark = pytest.mark.usefixtures("isolated_caches")


def build_graph():
    return scc_profile_graph(
        n=120, avg_degree=4.0, giant_scc_fraction=0.5,
        avg_distance=5.0, seed=42,
    )


@pytest.fixture(scope="module")
def chaos_graph():
    return build_graph()


def fingerprint(cell):
    """Every field of a passing cell; a failing one's without ``detail``."""
    fields = dataclasses.asdict(cell)
    if not cell.passed:
        del fields["detail"]
    return fields


def run_case(key, graph, run_dir):
    return [fingerprint(cell) for cell in CASES[key](graph, str(run_dir))]


@pytest.fixture(scope="module")
def golden(chaos_graph, tmp_path_factory):
    return load_pinned(
        GOLDEN_PATH,
        lambda: {
            key: run_case(key, chaos_graph, tmp_path_factory.mktemp("regen"))
            for key in CASES
        },
    )


@pytest.mark.parametrize("key", list(CASES))
def test_chaos_cells_pinned(golden, chaos_graph, key, tmp_path):
    assert run_case(key, chaos_graph, tmp_path) == golden[key]


def test_pins_cover_passing_and_failing_cells(golden):
    rows = [row for rows in golden.values() for row in rows]
    assert len(rows) == 27
    assert {row["engine"] for row in rows} >= {
        "digraph", "bulk-sync", "bulk-sync-vec", "async", "serve"
    }
    failing = [row for row in rows if not row["passed"]]
    assert failing and all("detail" not in row for row in failing)
    assert all(not golden[key][0]["passed"] for key in VACUOUS_CRASH_CASES)
