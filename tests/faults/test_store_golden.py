"""Golden fingerprints of every file the durable checkpoint store writes.

A run directory holds the header (``run.json``), the write-ahead
manifest, and per-checkpoint pages (raw, zlib-compacted, delta and
pickled scalars); this test pins the sha256 of each of them, by relative
file name. The cells cover pagerank on ``cnr`` (scale 0.2) for
``digraph`` and ``bulk-sync`` under full / incremental checkpoints with
compaction on / off, plus what a ``digraph`` crash-restart cell's
crashed leg leaves behind at the ``mid-spill`` (a torn page, an orphan
directory) and ``mid-manifest`` (a stale ``MANIFEST.json.tmp``) crash
points. The fingerprints in ``store_fingerprints.json`` were captured on
the commit before the store's page writer, page reader and manifest
commit moved onto :mod:`repro.storage.pages`, so a mismatch means a byte
on disk moved — or a fault-injector call moved, since the crash points
index into them.
"""

import itertools
import os
from pathlib import Path

import pytest

from repro import datasets
from repro.bench.runner import run_cell
from repro.cli import main
from repro.errors import InjectedCrashError
from repro.faults import FaultInjector, RecoveryPolicy
from repro.faults.chaos import crash_plan
from repro.gpu.config import MachineSpec
from repro.storage.pages import sha256_file

from tests.pinned import load_pinned

GOLDEN_PATH = Path(__file__).with_name("store_fingerprints.json")

DURABLE_CASES = list(
    itertools.product(
        ("digraph", "bulk-sync"),
        ("full", "incremental"),
        ("compact", "no-compact"),
    )
)
CRASH_CASES = [("digraph", point) for point in ("mid-spill", "mid-manifest")]


def _key(*case):
    return "/".join(case)


def _durable_run(case, run_dir):
    engine, checkpoints, compaction = case
    argv = [
        "run", "--dataset", "cnr", "--scale", "0.2",
        "--algorithm", "pagerank", "--engine", engine,
        "--durability", "durable", "--run-dir", run_dir,
    ]
    if checkpoints == "incremental":
        argv.append("--incremental-checkpoints")
    if compaction == "no-compact":
        argv.append("--no-compact")
    assert main(argv) == 0


def _crashed_run(case, run_dir):
    """The crashed leg of a crash-restart cell: dies at the crash point
    and leaves the run directory as the crash found it."""
    engine, point = case
    with pytest.raises(InjectedCrashError):
        run_cell(
            engine, "pagerank", "cnr",
            machine=MachineSpec(),
            graph=datasets.load("cnr", scale=0.2),
            recovery=RecoveryPolicy(durability="durable", run_dir=run_dir),
            fault_injector=FaultInjector(crash_plan(point, engine)),
        )


def fingerprint(case, run_dir):
    if len(case) == 3:
        _durable_run(case, run_dir)
    else:
        _crashed_run(case, run_dir)
    return {
        os.path.relpath(os.path.join(folder, name), run_dir).replace(
            os.sep, "/"
        ): sha256_file(os.path.join(folder, name))[0]
        for folder, _dirs, names in os.walk(run_dir)
        for name in names
    }


ALL_CASES = DURABLE_CASES + CRASH_CASES


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    return load_pinned(
        GOLDEN_PATH,
        lambda: {
            _key(*case): fingerprint(
                case, str(tmp_path_factory.mktemp("regen") / "run")
            )
            for case in ALL_CASES
        },
    )


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: _key(*case))
def test_store_files_pinned(golden, case, tmp_path):
    got = fingerprint(case, str(tmp_path / "run"))
    assert got == golden[_key(*case)]


def test_golden_file_covers_all_cases(golden):
    assert sorted(golden) == sorted(_key(*case) for case in ALL_CASES)
