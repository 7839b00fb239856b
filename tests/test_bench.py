"""Tests for the benchmark harness (runner, reporting, results)."""

import numpy as np
import pytest

from repro.bench.reporting import (
    format_table,
    matrix_table,
    normalized_matrix,
    series_table,
)
from repro.bench.results import ExecutionResult, RoundRecord, states_close
from repro.bench.runner import clear_cache, load_graph, make_engine, run_cell
from repro.errors import ConfigurationError
from repro.gpu.stats import MachineStats


def fake_result(engine="e", time_s=1.0, updates=10):
    stats = MachineStats(compute_time_s=time_s, vertex_updates=updates)
    return ExecutionResult(
        engine=engine,
        algorithm="pagerank",
        graph_name="g",
        converged=True,
        rounds=3,
        states=np.zeros(4),
        stats=stats,
    )


class TestRunner:
    def test_all_engine_names_buildable(self):
        for name in ("bulk-sync", "async", "digraph", "digraph-t", "digraph-w"):
            engine = make_engine(name)
            assert engine is not None

    def test_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            make_engine("cuda")

    def test_cell_memoized(self):
        clear_cache()
        a = run_cell("digraph", "bfs", "dblp", scale=0.3)
        b = run_cell("digraph", "bfs", "dblp", scale=0.3)
        assert a is b
        clear_cache()

    def test_cache_bypass(self):
        clear_cache()
        a = run_cell("digraph", "bfs", "dblp", scale=0.3)
        b = run_cell("digraph", "bfs", "dblp", scale=0.3, use_cache=False)
        assert a is not b
        assert np.array_equal(a.states, b.states)
        clear_cache()

    def test_sssp_gets_weights(self):
        g = load_graph("dblp", "sssp", 0.3)
        assert g.weights.max() > 1.0

    def test_gpu_override_changes_machine(self):
        clear_cache()
        one = run_cell("async", "bfs", "dblp", scale=0.3, num_gpus=1)
        four = run_cell("async", "bfs", "dblp", scale=0.3, num_gpus=4)
        assert one is not four
        clear_cache()


class TestReporting:
    def test_format_table_floats(self):
        table = format_table("T", ["a", "b"], [[1.5, "x"]])
        assert "T" in table
        assert "1.500" in table

    def test_normalized_matrix(self):
        results = {"g": {"base": fake_result(time_s=2.0),
                         "other": fake_result(time_s=1.0)}}
        matrix = normalized_matrix(
            results, lambda r: r.processing_time_s, baseline="base"
        )
        assert matrix["g"]["other"] == pytest.approx(0.5)
        assert matrix["g"]["base"] == pytest.approx(1.0)

    def test_speedup_matrix(self):
        results = {"g": {"base": fake_result(time_s=2.0),
                         "fast": fake_result(time_s=0.5)}}
        matrix = normalized_matrix(
            results, lambda r: r.processing_time_s, "base", invert=True
        )
        assert matrix["g"]["fast"] == pytest.approx(4.0)
        assert matrix["g"]["base"] == pytest.approx(1.0)

    def test_matrix_without_baseline_is_raw(self):
        results = {"g": {"a": fake_result(time_s=2.0)}}
        matrix = normalized_matrix(
            results, lambda r: r.processing_time_s, None
        )
        assert matrix == {"g": {"a": 2.0}}

    def test_matrix_table_renders(self):
        table = matrix_table("M", {"g": {"e": 1.0}}, ["e"])
        assert "M" in table and "g" in table

    def test_series_table(self):
        table = series_table("S", "x", [1, 2], {"y": [0.1, 0.2]})
        assert "0.200" in table


class TestResults:
    def test_breakdown_keys(self):
        result = fake_result()
        assert set(result.breakdown()) == {
            "preprocess_s", "compute_s", "communication_s"
        }

    def test_summary_mentions_engine(self):
        assert "pagerank" in fake_result().summary()

    def test_states_close_infinity_mask(self):
        a = fake_result()
        b = fake_result()
        a.states = np.array([1.0, np.inf])
        b.states = np.array([1.0, np.inf])
        assert states_close(a, b)
        b.states = np.array([1.0, 2.0])
        assert not states_close(a, b)

    def test_states_close_shape_mismatch(self):
        a, b = fake_result(), fake_result()
        a.states = np.zeros(3)
        b.states = np.zeros(4)
        assert not states_close(a, b)

    def test_round_record_fields(self):
        rec = RoundRecord(0, 3, 1, 0.5, 10)
        assert rec.partitions_processed == 3
