"""The structured errors: message and attributes, pinned byte for byte.

Each of the nine errors with structured fields is built three ways:
every field set (by keyword), no field set, and every argument
positional. ``str()``, ``args`` and every field attribute are pinned to
literal values, their types included (a stored ``tuple`` is not a
``list``), so a change in how a field is shown or stored fails here.
"""

import inspect
from pathlib import PurePosixPath

import pytest

from repro import errors
from repro.errors import (
    CheckpointStoreError,
    ConvergenceError,
    DeadlineExceededError,
    GPULostError,
    InjectedCrashError,
    InterconnectFault,
    QueryAbortedError,
    QueryShedError,
    StorageError,
)

#: id -> (constructor call, expected str(), expected field attributes).
CASES = {
    "storage/all": (
        lambda: StorageError(
            "shard unreadable", path=PurePosixPath("/data/s/3.bin"),
            shard=3, kind="torn",
        ),
        "shard unreadable (path=/data/s/3.bin, shard=3, kind=torn)",
        {"path": "/data/s/3.bin", "shard": 3, "kind": "torn"},
    ),
    "storage/none": (
        lambda: StorageError("bad offsets"),
        "bad offsets",
        {"path": None, "shard": None, "kind": None},
    ),
    "storage/positional": (
        lambda: StorageError("damaged", PurePosixPath("m.json"), 0, "bitrot"),
        "damaged (path=m.json, shard=0, kind=bitrot)",
        {"path": "m.json", "shard": 0, "kind": "bitrot"},
    ),
    "interconnect/all": (
        lambda: InterconnectFault("link 0->1 down", src=0, dst=1),
        "link 0->1 down",
        {"src": 0, "dst": 1},
    ),
    "interconnect/none": (
        lambda: InterconnectFault(),
        "interconnect fault",
        {"src": None, "dst": None},
    ),
    "interconnect/positional": (
        lambda: InterconnectFault("dropped", 2, "host"),
        "dropped",
        {"src": 2, "dst": "host"},
    ),
    "gpu-lost/all": (
        lambda: GPULostError("GPU 2 died", gpu_id=2),
        "GPU 2 died",
        {"gpu_id": 2},
    ),
    "gpu-lost/none": (
        lambda: GPULostError(),
        "GPU lost",
        {"gpu_id": None},
    ),
    "gpu-lost/positional": (
        lambda: GPULostError("lost", 0),
        "lost",
        {"gpu_id": 0},
    ),
    "convergence/all": (
        lambda: ConvergenceError(
            "no fixed point", rounds=12, active_vertices=40,
            last_max_delta=0.000123456789,
        ),
        "no fixed point (rounds=12, active_vertices=40, "
        "last_max_delta=0.000123457)",
        {"rounds": 12, "active_vertices": 40,
         "last_max_delta": 0.000123456789},
    ),
    "convergence/none": (
        lambda: ConvergenceError("stalled"),
        "stalled",
        {"rounds": None, "active_vertices": None, "last_max_delta": None},
    ),
    "convergence/positional": (
        lambda: ConvergenceError("stalled", 0, 7, 0.0),
        "stalled (rounds=0, active_vertices=7, last_max_delta=0)",
        {"rounds": 0, "active_vertices": 7, "last_max_delta": 0.0},
    ),
    "query-aborted/all": (
        lambda: QueryAbortedError(
            "dispatch died", query_ids=[4, 1], tenants=["b", "a", "b"],
            batch_id=7, launch_index=12,
        ),
        "dispatch died (queries=[4, 1], tenants=['a', 'b'], batch=7, "
        "launch=12)",
        {"query_ids": (4, 1), "tenants": ("b", "a", "b"), "batch_id": 7,
         "launch_index": 12},
    ),
    "query-aborted/none": (
        lambda: QueryAbortedError("aborted"),
        "aborted",
        {"query_ids": None, "tenants": None, "batch_id": None,
         "launch_index": None},
    ),
    "query-aborted/positional": (
        lambda: QueryAbortedError("aborted", (9,), ("t",), 0, 0),
        "aborted (queries=[9], tenants=['t'], batch=0, launch=0)",
        {"query_ids": (9,), "tenants": ("t",), "batch_id": 0,
         "launch_index": 0},
    ),
    "query-shed/all": (
        lambda: QueryShedError(
            "queue full", query_id=5, tenant="t1", queue_depth=64
        ),
        "queue full (query=5, tenant=t1, queue_depth=64)",
        {"query_id": 5, "tenant": "t1", "queue_depth": 64},
    ),
    "query-shed/none": (
        lambda: QueryShedError("shed"),
        "shed",
        {"query_id": None, "tenant": None, "queue_depth": None},
    ),
    "query-shed/positional": (
        lambda: QueryShedError("shed", 0, "t0", 0),
        "shed (query=0, tenant=t0, queue_depth=0)",
        {"query_id": 0, "tenant": "t0", "queue_depth": 0},
    ),
    "deadline/all": (
        lambda: DeadlineExceededError(
            "missed", query_id=3, tenant="x", deadline_s=0.5,
            detected_s=1.23456789,
        ),
        "missed (query=3, tenant=x, deadline_s=0.5, detected_s=1.23457)",
        {"query_id": 3, "tenant": "x", "deadline_s": 0.5,
         "detected_s": 1.23456789},
    ),
    "deadline/none": (
        lambda: DeadlineExceededError("late"),
        "late",
        {"query_id": None, "tenant": None, "deadline_s": None,
         "detected_s": None},
    ),
    "deadline/positional": (
        lambda: DeadlineExceededError("late", 1, "y", 2e-7, 1234567.0),
        "late (query=1, tenant=y, deadline_s=2e-07, detected_s=1.23457e+06)",
        {"query_id": 1, "tenant": "y", "deadline_s": 2e-7,
         "detected_s": 1234567.0},
    ),
    "checkpoint-store/all": (
        lambda: CheckpointStoreError(
            "page corrupt", run_dir=PurePosixPath("/runs/a"), checkpoint=8,
            page=PurePosixPath("/runs/a/ck8/values.page"), kind="bitrot",
        ),
        "page corrupt (run_dir=/runs/a, checkpoint=8, "
        "page=/runs/a/ck8/values.page, kind=bitrot)",
        {"run_dir": "/runs/a", "checkpoint": 8,
         "page": "/runs/a/ck8/values.page", "kind": "bitrot"},
    ),
    "checkpoint-store/none": (
        lambda: CheckpointStoreError("no store"),
        "no store",
        {"run_dir": None, "checkpoint": None, "page": None, "kind": None},
    ),
    "checkpoint-store/positional": (
        lambda: CheckpointStoreError(
            "orphan", PurePosixPath("r"), 0, PurePosixPath("p"), "orphan"
        ),
        "orphan (run_dir=r, checkpoint=0, page=p, kind=orphan)",
        {"run_dir": "r", "checkpoint": 0, "page": "p", "kind": "orphan"},
    ),
    "injected-crash/all": (
        lambda: InjectedCrashError(
            "crash", crash_point="mid-spill", round_index=4
        ),
        "crash (crash_point=mid-spill, round=4)",
        {"crash_point": "mid-spill", "round_index": 4},
    ),
    "injected-crash/none": (
        lambda: InjectedCrashError(),
        "injected whole-job crash",
        {"crash_point": None, "round_index": None},
    ),
    "injected-crash/positional": (
        lambda: InjectedCrashError("died", "round-boundary", 0),
        "died (crash_point=round-boundary, round=0)",
        {"crash_point": "round-boundary", "round_index": 0},
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_message_and_attributes_are_pinned(case):
    build, message, attributes = CASES[case]
    error = build()
    assert str(error) == message
    assert error.args == (message,)
    for name, expected in attributes.items():
        value = getattr(error, name)
        assert (type(value), value) == (type(expected), expected), name


def test_every_structured_error_is_pinned():
    """Each class that declares its own field table has cases above."""
    pinned = {type(build()) for build, _, _ in CASES.values()}
    declaring = {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__ and "fields" in vars(cls)
    }
    assert declaring - {errors.StructuredError} == pinned


def test_only_the_base_defines_init():
    defining = [
        name for name, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__ and "__init__" in vars(cls)
    ]
    assert defining == ["StructuredError"]
