"""Golden fingerprints of the query server's serve loop.

Fifteen server configurations serve one 40-query trace (``TraceSpec(
seed=3)``; a burst and a closed-loop variant of it) on the 140-vertex
context of ``test_overload.py``: the default, sequential dispatch, a
burst, queue-bound shedding, deadline reject and abort, brownout (with
and without abort), closed loop (plain and with a queue bound and a
deadline), a GPU kill replayed, a kill with ``max_replays=0``, an
exhausted replay budget, replay backoff and an overloaded storm. Each
row pins every :class:`~repro.serve.server.ServeReport` field, its
``metrics()``, every :class:`~repro.serve.query.QueryResult` field (a
degraded answer's ``states`` as sha256) and the error ``strict=True``
raises. The journaled rows pin the journal's sha256, a rerun served
entirely from that journal, and a restart after a crash-only plan, which
must equal the uninterrupted run. The fingerprints were captured before
the server's batch outcomes went through one commit, so a mismatch
means a status, digest, counter or modeled instant moved.
"""

import dataclasses
import hashlib
import json
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.errors import InjectedCrashError, QueryAbortedError
from repro.faults import ComputeFault, FaultPlan
from repro.graph.generators import scc_profile_graph, with_random_weights
from repro.serve.context import ServingContext
from repro.serve.query import TraceSpec
from repro.serve.server import QueryServer, ServeConfig, ServeReport

from tests.pinned import load_pinned
from tests.serve.test_overload import SPEC

GOLDEN_PATH = Path(__file__).with_name("server_fingerprints.json")

BURST = dict(mean_interarrival_s=1e-7)
CLOSED = dict(arrival_model="closed")
STORM = dict(max_replays=3, replay_backoff_s=5e-6)


def _kill(launch):
    return FaultPlan(compute_faults={launch: ComputeFault(kill_gpu=0)})


def _storm(**options):
    return FaultPlan.generate_storm(3, SPEC.num_gpus, **options)


#: name -> (trace overrides, ServeConfig fields, fault plan or None).
CASES = {
    "default": ({}, {}, None),
    "sequential": ({}, dict(query_lanes=1), None),
    "burst": (BURST, {}, None),
    "shed": (BURST, dict(max_queue=6), None),
    "deadline-reject": ({}, dict(deadline_s=6e-4), None),
    "deadline-abort": (
        {}, dict(deadline_s=6e-4, deadline_policy="abort"), None,
    ),
    "brownout": ({}, dict(deadline_s=6e-4, brownout=True), None),
    "brownout-abort": (
        {},
        dict(deadline_s=6e-4, brownout=True, deadline_policy="abort"),
        None,
    ),
    "closed": (CLOSED, {}, None),
    "closed-bounded": (
        CLOSED, dict(max_concurrent=1, max_queue=2, deadline_s=3e-4), None,
    ),
    "kill-replay": ({}, {}, _kill(4)),
    "kill-no-replay": ({}, dict(max_replays=0), _kill(4)),
    "exhausted-budget": (
        {}, dict(max_replays=1),
        _storm(kills=3, first_kill_at=2, kill_spacing=1),
    ),
    "replay-backoff": (
        {}, dict(max_replays=2, replay_backoff_s=5e-5),
        _storm(kills=2, first_kill_at=3, kill_spacing=40),
    ),
    "overloaded-storm": (
        BURST,
        dict(STORM, deadline_s=5e-5, max_queue=4, brownout=True),
        _storm(kills=2),
    ),
}

#: The rows also served through a journal.
JOURNALED = (
    "default", "shed", "brownout-abort", "closed-bounded", "kill-replay",
    "kill-no-replay",
)

#: Serve-wide launch of the crash-only plan: mid-trace on every row.
CRASH_LAUNCH = 200


def build_context():
    graph = with_random_weights(
        scc_profile_graph(
            n=140, avg_degree=4.0, giant_scc_fraction=0.5,
            avg_distance=5.0, seed=7,
        ),
        seed=7,
    )
    return ServingContext(graph, machine_spec=SPEC)


@pytest.fixture(scope="module")
def context():
    return build_context()


def _trace(context, key):
    overrides = CASES[key][0]
    spec = TraceSpec(seed=3, num_queries=40, **overrides)
    return spec.generate(context.graph.num_vertices)


def _server(context, key, plan="case", journal=None):
    """The row's server; ``plan`` replaces the row's fault plan."""
    _, config, case_plan = CASES[key]
    return QueryServer(
        context, ServeConfig(**config),
        fault_plan=case_plan if plan == "case" else plan,
        journal_path=journal,
    )


def _result_print(result):
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
    }
    fields["query"] = dataclasses.asdict(result.query)
    states = fields.pop("states")
    fields["states_sha256"] = (
        None if states is None
        else _sha256(np.ascontiguousarray(states).tobytes())
    )
    return fields


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(report: ServeReport):
    """Every report field and ``metrics()`` as JSON; the results as the
    sha256 of every field of every result, plus a status count."""
    fields = {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.name != "results"
    }
    fields["metrics"] = report.metrics()
    prints = [_result_print(r) for r in report.results]
    fields["results_sha256"] = _sha256(
        json.dumps(prints, sort_keys=True).encode()
    )
    fields["statuses"] = Counter(p["status"] for p in prints)
    fields["states_pinned"] = sum(1 for p in prints if p["states_sha256"])
    return json.loads(json.dumps(fields))


def strict_error(context, key):
    try:
        _server(context, key).serve(_trace(context, key), strict=True)
    except QueryAbortedError as exc:
        return str(exc)
    return None


def run_case(context, key):
    return {
        "report": fingerprint(
            _server(context, key).serve(_trace(context, key))
        ),
        "strict_error": strict_error(context, key),
    }


def run_journaled(context, key, run_dir):
    """The journal's bytes, a rerun off it, and a crash-restart."""
    trace = _trace(context, key)
    journal = os.path.join(run_dir, "journal.jsonl")
    first = _server(context, key, journal=journal).serve(trace)
    assert fingerprint(first) == fingerprint(
        _server(context, key).serve(trace)
    )
    journal_sha = _sha256(Path(journal).read_bytes())
    rerun = _server(context, key, journal=journal).serve(trace)

    resumed_journal = os.path.join(run_dir, "resumed.jsonl")
    crash = FaultPlan(
        compute_faults={CRASH_LAUNCH: ComputeFault(crash=True)}
    )
    with pytest.raises(InjectedCrashError):
        _server(context, key, plan=crash, journal=resumed_journal).serve(
            trace
        )
    resumed = _server(
        context, key, plan=None, journal=resumed_journal
    ).serve(trace)
    uninterrupted = _server(context, key, plan=None).serve(trace)
    assert resumed == uninterrupted
    return {
        "journal_sha256": journal_sha,
        "rerun": fingerprint(rerun),
        "resumed": fingerprint(resumed),
    }


def test_a_resumed_serve_keeps_its_faults_and_launch_index(context, tmp_path):
    """Kill at launch 4, crash at launch 300, resume: the journal gives
    back the killed batch's fault, and the re-served tail's launches
    are numbered past the journaled ones, so a kill kept in the plan
    does not fire twice."""
    trace = _trace(context, "kill-replay")
    crashed = tmp_path / "crashed.jsonl"
    plan = FaultPlan(compute_faults={
        4: ComputeFault(kill_gpu=0), 300: ComputeFault(crash=True),
    })
    with pytest.raises(InjectedCrashError):
        _server(context, "kill-replay", plan=plan, journal=str(crashed)).serve(
            trace
        )
    uninterrupted = _server(context, "kill-replay").serve(trace)
    assert (uninterrupted.faults_injected, uninterrupted.replays) == (1, 1)
    for resume_plan in (None, _kill(4)):
        journal = tmp_path / f"resumed-{resume_plan is None}.jsonl"
        journal.write_bytes(crashed.read_bytes())
        resumed = _server(
            context, "kill-replay", plan=resume_plan, journal=str(journal)
        ).serve(trace)
        assert resumed == uninterrupted


@pytest.fixture(scope="module")
def golden(context, tmp_path_factory):
    return load_pinned(
        GOLDEN_PATH,
        lambda: {
            **{key: run_case(context, key) for key in CASES},
            **{
                f"journal/{key}": run_journaled(
                    context, key, str(tmp_path_factory.mktemp("regen"))
                )
                for key in JOURNALED
            },
        },
    )


@pytest.mark.parametrize("key", list(CASES))
def test_serve_pinned(golden, context, key):
    assert run_case(context, key) == golden[key]


@pytest.mark.parametrize("key", JOURNALED)
def test_journaled_serve_pinned(golden, context, key, tmp_path):
    assert run_journaled(context, key, str(tmp_path)) == golden[
        f"journal/{key}"
    ]


def test_pins_cover_every_outcome(golden):
    """The rows reach every status, a strict error, a replay and a
    pinned degraded state vector."""
    reports = {key: golden[key]["report"] for key in CASES}
    statuses = {s for r in reports.values() for s in r["statuses"]}
    assert statuses == {
        "ok", "degraded", "failed", "aborted", "shed", "rejected"
    }
    assert golden["kill-no-replay"]["strict_error"] is not None
    assert golden["exhausted-budget"]["strict_error"] is not None
    assert reports["kill-replay"]["replays"] > 0
    assert reports["replay-backoff"]["replays"] > 0
    assert reports["shed"]["statuses"]["shed"] > 0
    assert reports["deadline-reject"]["statuses"]["rejected"] > 0
    assert reports["closed-bounded"]["statuses"]["shed"] > 0
    assert reports["brownout"]["states_pinned"] > 0
    journaled = [golden[f"journal/{key}"] for key in JOURNALED]
    assert all(row["rerun"]["launches"] for row in journaled)
