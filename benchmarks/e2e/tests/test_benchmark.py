"""Self-tests of the e2e benchmark, driven by its ``--quick`` mode.

Three quick runs are made once per session, side by side: A (seed 1,
traced), B (seed 1, untraced) and C (seed 2, untraced).
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.dirname(HERE)
RUN = os.path.join(E2E, "run.py")
sys.path.insert(0, E2E)

import compare  # noqa: E402
import harness  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="session")
def contract():
    return harness.load_contract()


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("e2e")
    started = {
        key: subprocess.Popen(
            [sys.executable, RUN, "--quick", "--seed", str(seed),
             "--trace", str(trace), "--out", str(base / key)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for key, seed, trace in (("a", 1, 1), ("b", 1, 0), ("c", 2, 0))
    }
    finished = {}
    for key, process in started.items():
        stdout, _ = process.communicate(timeout=180)
        assert process.returncode == 0, stdout
        with open(base / key / "results.json") as fh:
            finished[key] = {
                "dir": base / key, "stdout": stdout, "results": json.load(fh)
            }
    return finished


def driver_lines(stdout):
    return [
        json.loads(line) for line in stdout.splitlines()
        if line.startswith('{"correct"')
    ]


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_contract_schema(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    for spec in contract["end_to_end"]:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 < spec["bound"] <= 0.25
    for spec in contract["per_layer"]:
        assert set(spec) == {"name", "unit", "better"}
    names = [
        spec["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for spec in contract[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for spec in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(spec["unit"])
        assert spec["better"] in ("lower", "higher")
    setup = next(s for s in contract["end_to_end"] if s["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(s["bound"] for s in contract["end_to_end"])
    assert os.path.getsize(harness.BENCHMARK_JSON) <= 64 * 1024


def test_workloads_match_the_runner(contract):
    import run

    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOADS)


# ----------------------------------------------------------------------
# what a run prints
# ----------------------------------------------------------------------
def test_driver_lines_carry_exactly_the_listed_metrics(contract, runs):
    for key, listed in (("a", "per_layer"), ("b", "end_to_end")):
        lines = driver_lines(runs[key]["stdout"])
        assert len(lines) == len(contract["workloads"])
        for line in lines:
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True
            assert line["attempted"] >= 1 and line["failed"] == 0
            assert list(line["metrics"]) == [s["name"] for s in contract[listed]]
            for spec in contract[listed]:
                entry = line["metrics"][spec["name"]]
                assert set(entry) == {"value", "unit"}
                assert entry["unit"] == spec["unit"]
                assert isinstance(entry["value"], (int, float))


def test_every_metric_is_printed_by_name_with_its_unit(contract, runs):
    stdout = runs["a"]["stdout"]
    for spec in contract["end_to_end"] + contract["per_layer"]:
        pattern = rf"^{re.escape(spec['name'])}\s+\S+\s+{re.escape(spec['unit'])}\s+\[(model|host)\]"
        assert re.search(pattern, stdout, re.M), spec["name"]


def test_end_to_end_metrics_are_never_zero(contract, runs):
    for run in ("a", "b", "c"):
        for name, result in runs[run]["results"]["workloads"].items():
            for spec in contract["end_to_end"]:
                entry = result["metrics"][spec["name"]]
                assert entry["clock"] in ("model", "host")
                assert entry["value"] > 0, (name, spec["name"])


def test_no_operation_failed(runs):
    for run in runs.values():
        for name, result in run["results"]["workloads"].items():
            assert result["failed"] == 0, result["failures"]
            assert result["metrics"]["ok_fraction"]["value"] == 1.0


def test_header_records_the_environment(runs):
    header = runs["a"]["results"]["workloads"]["batch-web"]["header"]
    assert set(header) == {"python", "numpy", "platform", "nproc", "loadavg"}


# ----------------------------------------------------------------------
# seeds and determinism
# ----------------------------------------------------------------------
def test_same_seed_gives_identical_model_metrics_and_digests(runs):
    rows = compare.compare(runs["a"]["results"], runs["b"]["results"])
    model = [r for r in rows if r["clock"] == "model"]
    assert len(model) > 4 * 4
    assert [r for r in model if r["status"] != "equal"] == []


def test_traced_pass_reproduces_the_untraced_digests(runs):
    # The traced pass is one more certified operation of run A; its
    # digests and model metrics are checked against the pinned ones.
    for name, traced in runs["a"]["results"]["workloads"].items():
        untraced = runs["b"]["results"]["workloads"][name]
        assert traced["attempted"] == untraced["attempted"] + 1
        assert traced["digests"] == untraced["digests"]
        assert "host.trace_overhead_fraction" in traced["metrics"]


def test_different_seed_gives_different_inputs(runs):
    for name, first in runs["a"]["results"]["workloads"].items():
        second = runs["c"]["results"]["workloads"][name]
        assert first["digests"]["inputs"] != second["digests"]["inputs"], name


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def test_spans_nest_and_children_fit_their_parent(contract, runs):
    for workload in contract["workloads"]:
        path = runs["a"]["dir"] / f"trace-{workload['name']}.json"
        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
        assert events
        children = {}
        for event in events:
            assert event["ph"] == "X" and event["dur"] >= 0
            parent = event["args"]["parent"]
            if parent is None:
                continue
            outer = events[parent]
            assert outer["args"]["id"] == parent
            assert outer["args"]["scope"] == event["args"]["scope"]
            assert outer["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + 1e-3
            children[parent] = children.get(parent, 0.0) + event["dur"]
        for parent, covered in children.items():
            assert covered <= events[parent]["dur"] + 1e-3
        assert any(e["args"]["scope"].endswith("/traced-0") for e in events)


def test_every_layer_is_exercised_by_some_workload(contract, runs):
    exercised = set()
    for result in runs["a"]["results"]["workloads"].values():
        exercised.update(
            name for name, entry in result["metrics"].items()
            if entry["clock"] != "bypassed"
        )
    assert {s["name"] for s in contract["per_layer"]} <= exercised


def test_workloads_bypass_what_they_claim_to(runs):
    results = runs["a"]["results"]["workloads"]
    serve, batch = results["serve-mixed"]["metrics"], results["batch-web"]["metrics"]
    assert serve["core.engine.run_wall_s"]["clock"] == "bypassed"
    assert serve["gpu.edge_traversals"]["clock"] == "bypassed"
    assert batch["serve.server.serve_wall_s"]["clock"] == "bypassed"
    assert batch["storage.partition.wall_s"]["clock"] == "bypassed"


def test_self_time_is_duration_minus_children():
    spans = [
        {"name": "outer", "scope": "s", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "inner", "scope": "s", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "inner", "scope": "s", "parent": 0, "start": 5.0, "end": 7.0},
        {"name": "other", "scope": "t", "parent": None, "start": 0.0, "end": 1.0},
    ]
    summary = harness.summarize_spans(spans, "s")
    assert summary["outer"] == {"count": 1, "total_s": 10.0, "self_s": 5.0}
    assert summary["inner"] == {"count": 2, "total_s": 5.0, "self_s": 5.0}
    assert "other" not in summary


def test_disabled_tracer_records_nothing():
    tracer = harness.Tracer()
    with tracer.span("quiet"):
        pass
    assert tracer.spans == []
    tracer.enabled = True
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert [s["parent"] for s in tracer.spans] == [None, 0]


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _compare_files(tmp_path, a, b):
    paths = []
    for label, payload in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(payload))
    return subprocess.run(
        [sys.executable, os.path.join(E2E, "compare.py")] + [str(p) for p in paths],
        capture_output=True, text=True,
    )


def test_compare_passes_on_a_run_against_itself(tmp_path, runs):
    done = _compare_files(tmp_path, runs["a"]["results"], runs["a"]["results"])
    assert done.returncode == 0, done.stdout
    assert "0 failing" in done.stdout


def _with_wall(results, factors, scale=1.0):
    """``results`` with batch-web's wall_s samples set to known values."""
    edited = copy.deepcopy(results)
    wall = edited["workloads"]["batch-web"]["metrics"]["wall_s"]
    wall["samples"] = [wall["value"] * scale * f for f in factors]
    wall["value"] *= scale
    return edited


def test_compare_fails_on_a_doubled_wall_time(tmp_path, runs):
    steady = _with_wall(runs["b"]["results"], (0.99, 1.0, 1.01))
    slowed = _with_wall(runs["b"]["results"], (0.99, 1.0, 1.01), scale=2.0)
    done = _compare_files(tmp_path, steady, slowed)
    assert done.returncode == 1
    assert re.search(r"batch-web\s+wall_s\s.*regressed", done.stdout)


def test_compare_fails_on_a_moved_model_metric(runs):
    moved = copy.deepcopy(runs["b"]["results"])
    moved["workloads"]["serve-mixed"]["metrics"]["modeled_time_s"]["value"] *= 1.0001
    rows = compare.compare(runs["b"]["results"], moved)
    assert [(r["workload"], r["metric"]) for r in rows if r["status"] == "differs"] == [
        ("serve-mixed", "modeled_time_s")
    ]


def test_compare_reports_a_noisy_metric_as_unresolved(runs):
    steady = _with_wall(runs["b"]["results"], (0.99, 1.0, 1.01))
    noisy = _with_wall(runs["b"]["results"], (0.5, 1.0, 1.5))
    rows = compare.compare(steady, noisy)
    row = next(r for r in rows if (r["workload"], r["metric"]) == ("batch-web", "wall_s"))
    assert row["status"] == "unresolved"
    # Noisy, but every sample of the change is slower: that is settled.
    rows = compare.compare(steady, _with_wall(noisy, (0.5, 1.0, 1.5), scale=4.0))
    row = next(r for r in rows if (r["workload"], r["metric"]) == ("batch-web", "wall_s"))
    assert row["status"] == "regressed"


# ----------------------------------------------------------------------
# where there is no program to measure
# ----------------------------------------------------------------------
def test_fails_without_a_result_where_only_the_benchmark_exists(tmp_path):
    shutil.copy(harness.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        E2E, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "batch-web",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
