"""Fast tests of the experiment shaping logic with stubbed engine cells.

These verify the per-figure data plumbing (normalization, series
assembly, table rendering) without running engines — the real sweeps are
exercised by benchmarks/.
"""

import numpy as np
import pytest

import repro.bench.experiments as experiments
import repro.bench.runner as runner
from repro.bench.results import ExecutionResult
from repro.gpu.stats import MachineStats


def fake_result(engine, time_s=1.0, updates=100, preprocess=0.1):
    stats = MachineStats(
        compute_time_s=time_s,
        vertex_updates=updates,
        preprocess_time_s=preprocess,
        vertices_loaded=10,
        vertex_uses=20,
        busy_thread_cycles=1,
        total_thread_cycles=2,
        h2d_bytes=100,
    )
    return ExecutionResult(
        engine=engine,
        algorithm="pagerank",
        graph_name="g",
        converged=True,
        rounds=2,
        states=np.zeros(3),
        stats=stats,
        extras={"avg_path_length": 2.0},
    )


@pytest.fixture
def stub_cells(monkeypatch):
    """Replace run_cell with deterministic fakes per engine."""
    behavior = {
        "bulk-sync": dict(time_s=4.0, updates=400, preprocess=0.10),
        "async": dict(time_s=2.0, updates=300, preprocess=0.104),
        "digraph": dict(time_s=1.0, updates=150, preprocess=0.13),
        "digraph-t": dict(time_s=3.0, updates=350, preprocess=0.13),
        "digraph-w": dict(time_s=1.5, updates=200, preprocess=0.13),
    }

    def fake_run_cell(engine_name, algo, graph_name, **kwargs):
        return fake_result(engine_name, **behavior[engine_name])

    monkeypatch.setattr(experiments, "run_cell", fake_run_cell)
    # fig16 now routes through the sweep runner, which calls
    # runner.run_cell directly.
    monkeypatch.setattr(runner, "run_cell", fake_run_cell)
    return behavior


def run(name, **kwargs):
    return experiments.EXPERIMENTS[name](scale=0.1, **kwargs)


class TestFigureLogic:
    def test_fig8_normalizes_to_bulk(self, stub_cells):
        result = run("fig8_preprocessing")
        for per_engine in result["values"]["pagerank"]["preprocess"].values():
            assert per_engine["bulk-sync"] == pytest.approx(1.0)
            assert per_engine["digraph"] == pytest.approx(1.3)
        assert "Fig 8" in result["table"]

    def test_fig10_speedup_inverts_time(self, stub_cells):
        result = run("fig10_speedup", algos=["pagerank"])
        matrix = result["values"]["pagerank"]["time"]
        for per_engine in matrix.values():
            assert per_engine["digraph"] == pytest.approx(4.0)
            assert per_engine["async"] == pytest.approx(2.0)

    def test_fig11_update_ratios(self, stub_cells):
        result = run("fig11_updates", algos=["pagerank"])
        matrix = result["values"]["pagerank"]["updates"]
        for per_engine in matrix.values():
            assert per_engine["digraph"] == pytest.approx(150 / 400)

    def test_fig6_contains_both_views(self, stub_cells):
        result = run("fig6_vs_digraph_t", algos=["pagerank"])
        views = result["values"]["pagerank"]
        assert views["time"]["dblp"]["digraph"] == pytest.approx(1.0 / 3.0)
        assert views["updates"]["dblp"]["digraph"] == pytest.approx(150 / 350)
        assert "time normalized to digraph-t" in result["table"]
        assert "updates normalized to digraph-t" in result["table"]

    def test_fig16_efficiency_relative_to_one_gpu(self, stub_cells):
        result = experiments.fig16_scalability(
            scale=0.1, gpu_counts=(1, 2), algos=("pagerank",)
        )
        eff = result["efficiency"]["pagerank"]
        for engine, series in eff.items():
            assert series[0] == pytest.approx(1.0)

    def test_fig9_rows_have_all_phases(self, stub_cells):
        result = run("fig9_breakdown")
        phases = result["values"]["pagerank"]
        assert list(phases) == ["preproc", "compute", "comm"]
        for matrix in phases.values():
            for per_engine in matrix.values():
                assert all(value >= 0 for value in per_engine.values())
        # One row per graph and engine, under the title and the header.
        assert len(result["table"].splitlines()) == 3 + 6 * 3
        assert "Fig 9" in result["table"]

    def test_fig15_rows(self, stub_cells):
        result = run("fig15_gpu_utilization")
        for per_engine in result["values"]["pagerank"][
            "gpu_utilization"
        ].values():
            assert all(value == 0.5 for value in per_engine.values())

    def test_every_table_driven_figure_has_one_shape(self, stub_cells):
        """``cells[algo][graph-or-x][engine]``, ``values`` and ``table``,
        whichever row type the figure is."""
        for name, row in {
            **experiments.FIGURES, **experiments.SERIES
        }.items():
            result = run(name)
            assert set(result) == {"cells", "values", "table"}, name
            columns = getattr(row, "engines", None) or tuple(row.lines)
            for algo, per_row in result["cells"].items():
                assert set(result["values"][algo]) == set(row.metrics)
                for key, per_engine in per_row.items():
                    assert tuple(per_engine) == columns, (name, key)

    def test_series_columns(self, stub_cells):
        fig17 = run("fig17_cpu_threads")
        assert list(fig17["cells"]["pagerank"]) == [1, 2, 4, 8]
        # One metric: a column per line. One line: a column per metric.
        header = fig17["table"].splitlines()[2]
        assert "digraph/1gpu" in header and "digraph/4gpu" in header
        header = run("ablation_dmax")["table"].splitlines()[2]
        for column in ("d_max", "time_ms", "updates", "avg_path_len"):
            assert column in header
