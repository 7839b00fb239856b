"""Serve-mode sweep cells: config validation, memo-key isolation
against batch cells, artifact schema enforcement, and the regression
gate over serving metrics."""

import copy

import pytest

from repro.bench.runner import run_cell
from repro.bench.schema import validate_artifact
from repro.bench.sweep import (
    GATED_METRICS,
    SweepConfig,
    compare_sweeps,
    run_sweep,
)
from repro.errors import ArtifactError, ConfigurationError
from repro.serve.runner import run_serve_cell

SERVE_TINY = {
    "mode": "serve",
    "engines": ["serve"],
    "algorithms": ["mixed"],
    "graphs": ["dblp"],
    "scale": 0.05,
    "seeds": [3],
    "knobs": {"query_lanes": [1, 4], "num_queries": [16]},
}


pytestmark = pytest.mark.usefixtures("isolated_caches")


@pytest.fixture(scope="module")
def serve_report():
    """One shared tiny serve sweep; tests must not mutate it."""
    return run_sweep(SweepConfig.from_dict(dict(SERVE_TINY)))


class TestConfigValidation:
    def test_valid_round_trips(self):
        config = SweepConfig.from_dict(dict(SERVE_TINY))
        assert SweepConfig.from_dict(config.as_dict()) == config

    def test_serve_mode_requires_pseudo_engine(self):
        with pytest.raises(ConfigurationError, match="pseudo-engine"):
            SweepConfig.from_dict(
                {**SERVE_TINY, "engines": ["digraph"]}
            )

    def test_serve_engine_rejected_in_run_mode(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            SweepConfig.from_dict(
                {
                    **SERVE_TINY,
                    "mode": "run",
                    "algorithms": ["pagerank"],
                    "knobs": {},
                }
            )

    def test_unservable_algorithm_rejected(self):
        with pytest.raises(ConfigurationError, match="not servable"):
            SweepConfig.from_dict(
                {**SERVE_TINY, "algorithms": ["pagerank"]}
            )

    def test_run_knob_rejected_in_serve_mode(self):
        with pytest.raises(ConfigurationError, match="unknown serve-mode"):
            SweepConfig.from_dict(
                {
                    **SERVE_TINY,
                    "knobs": {"n_workers": [2]},
                }
            )

    def test_serve_knob_rejected_in_run_mode(self):
        with pytest.raises(ConfigurationError, match="unknown run-mode"):
            SweepConfig.from_dict(
                {
                    "engines": ["digraph"],
                    "algorithms": ["pagerank"],
                    "graphs": ["cnr"],
                    "scale": 0.1,
                    "seeds": [3],
                    "knobs": {"query_lanes": [4]},
                }
            )


class TestMemoKeyIsolation:
    """The cache-poisoning fix: serving knobs are part of every key."""

    def test_lane_counts_do_not_alias(self):
        base = dict(scale=0.05, num_queries=12, seed=2)
        narrow = run_serve_cell("bfs", "dblp", query_lanes=1, **base)
        wide = run_serve_cell("bfs", "dblp", query_lanes=8, **base)
        assert narrow is not wide
        assert narrow.launches > wide.launches
        # Both distinct cells are memoized under their own keys.
        assert run_serve_cell(
            "bfs", "dblp", query_lanes=1, **base
        ) is narrow
        assert run_serve_cell(
            "bfs", "dblp", query_lanes=8, **base
        ) is wide

    def test_tenant_count_is_part_of_the_key(self):
        base = dict(scale=0.05, num_queries=12, seed=2)
        two = run_serve_cell("bfs", "dblp", tenant_count=2, **base)
        four = run_serve_cell("bfs", "dblp", tenant_count=4, **base)
        assert two is not four
        assert set(two.per_tenant) != set(four.per_tenant)

    def test_serve_cells_do_not_shadow_batch_cells(self):
        """Batch and serve cells share one process cache; a serve cell
        must never be returned for a batch lookup or vice versa."""
        batch = run_cell("digraph", "bfs", "dblp", scale=0.05)
        serve = run_serve_cell(
            "bfs", "dblp", scale=0.05, num_queries=12, seed=2
        )
        assert run_cell("digraph", "bfs", "dblp", scale=0.05) is batch
        assert run_serve_cell(
            "bfs", "dblp", scale=0.05, num_queries=12, seed=2
        ) is serve

    def test_custom_cells_bypass_the_cache(self):
        from repro.graph.generators import scc_profile_graph

        graph = scc_profile_graph(
            n=80, avg_degree=3.0, giant_scc_fraction=0.5,
            avg_distance=4.0, seed=1,
        )
        first = run_serve_cell(
            "bfs", "custom", num_queries=8, seed=0, graph=graph
        )
        second = run_serve_cell(
            "bfs", "custom", num_queries=8, seed=0, graph=graph
        )
        assert first is not second


class TestArtifactSchema:
    def test_serve_sweep_validates(self, serve_report):
        assert validate_artifact(serve_report) == "repro-sweep"

    def test_negative_serve_counter_rejected(self, serve_report):
        bad = copy.deepcopy(serve_report)
        bad["cells"][0]["metrics"]["queries_failed"]["mean"] = -1.0
        with pytest.raises(ArtifactError, match="negative"):
            validate_artifact(bad)

    def test_negative_rate_suffix_rejected(self, serve_report):
        bad = copy.deepcopy(serve_report)
        bad["cells"][0]["metrics"]["queries_per_s"]["mean"] = -0.5
        with pytest.raises(ArtifactError, match="negative"):
            validate_artifact(bad)

    def test_negative_interarrival_rejected(self, serve_report):
        bad = copy.deepcopy(serve_report)
        bad["config"]["knobs"]["mean_interarrival_us"] = [-10.0]
        with pytest.raises(ArtifactError, match="negative"):
            validate_artifact(bad)

    def test_serve_cells_report_serve_metrics(self, serve_report):
        for cell in serve_report["cells"]:
            assert cell["mode"] == "serve"
            assert cell["converged"]
            assert cell["deterministic"]
            metrics = cell["metrics"]
            for name in GATED_METRICS["serve"]:
                assert name in metrics
            assert metrics["queries_completed"]["mean"] == 16.0


class TestGate:
    def test_gate_against_itself_passes(self, serve_report):
        report = compare_sweeps(serve_report, serve_report)
        assert report.passed
        assert report.cells_checked == serve_report["matrix_cells"]

    def test_fresh_rerun_passes_gate(self, serve_report):
        fresh = run_sweep(SweepConfig.from_dict(dict(SERVE_TINY)))
        assert compare_sweeps(serve_report, fresh).passed

    def test_latency_regression_fails_gate(self, serve_report):
        slowed = run_sweep(
            SweepConfig.from_dict(
                {**SERVE_TINY, "inject_slowdown": {"serve/*": 2.0}}
            )
        )
        report = compare_sweeps(serve_report, slowed, tolerance=0.15)
        assert not report.passed
        assert any(f.kind == "regression" for f in report.failures)

    def test_answer_change_fails_gate(self, serve_report):
        """A flipped served answer is a digest mismatch, not a perf
        regression — the gate must treat it as a hard failure."""
        fresh = copy.deepcopy(serve_report)
        seed = next(iter(fresh["cells"][0]["digests"]))
        fresh["cells"][0]["digests"][seed] = "0" * 64
        report = compare_sweeps(serve_report, fresh)
        assert not report.passed
        assert report.failures[0].kind == "digest-mismatch"
