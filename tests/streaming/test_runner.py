"""``run_stream_cell``: the one replay loop the sweep's stream cells,
``repro stream`` and ``verify_stream`` share."""

import numpy as np
import pytest

from repro.bench.runner import load_graph
from repro.errors import ConfigurationError
from repro.graph.generators import mutation_trace
from repro.streaming.session import run_stream_cell


def test_cell_defaults_are_the_knob_rows():
    report = run_stream_cell("sssp", "cnr", scale=0.1, seed=7)
    assert len(report.outcomes) == 3  # stream_batches
    for outcome in report.outcomes:
        assert len(outcome.applied.inserted) == 4  # insert mix, size 4
        assert outcome.certification.passed
    metrics = report.metrics()
    assert report.certified
    assert metrics["incremental_s"] < metrics["rebuild_s"]
    assert metrics["speedup"] == metrics["rebuild_s"] / metrics["incremental_s"]


def test_a_given_trace_is_replayed_as_is():
    graph = load_graph("cnr", "wcc", 0.1)
    trace = mutation_trace(graph, 2, seed=3, batch_size=5, mix="mixed")
    drawn = run_stream_cell(
        "wcc", "cnr", scale=0.1, seed=3,
        stream_batches=2, stream_batch_size=5, stream_mix="mixed",
    )
    given = run_stream_cell("wcc", "cnr", graph=graph, trace=trace)
    assert [o.batch_id for o in given.outcomes] == [0, 1]
    assert np.array_equal(given.session.values, drawn.session.values)
    assert given.metrics() == drawn.metrics()


def test_uncertified_replay_has_no_rebuild_time():
    report = run_stream_cell(
        "pagerank", "cnr", scale=0.1, stream_batches=1, certify=False
    )
    assert report.certified  # vacuously: nothing was checked
    assert report.metrics()["rebuild_s"] == 0.0
    assert report.metrics()["speedup"] == 0.0


def test_unknown_or_out_of_range_knob_is_rejected():
    with pytest.raises(ConfigurationError, match="stream_batchez"):
        run_stream_cell("wcc", "cnr", scale=0.1, stream_batchez=2)
    with pytest.raises(ConfigurationError, match="stream_batch_size"):
        run_stream_cell("wcc", "cnr", scale=0.1, stream_batch_size=0)
