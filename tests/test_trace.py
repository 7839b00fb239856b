"""Tests for the round-trace reporting."""

import pytest

from repro.algorithms.pagerank import PageRank
from repro.bench.trace import round_trace_summary, sparkline
from repro.core.engine import DiGraphEngine
from repro.graph.generators import scc_profile_graph


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        line = sparkline([5.0, 5.0, 5.0])
        assert len(line) == 3

    def test_monotone_levels(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] <= line[1] <= line[2]

    def test_downsampling(self):
        line = sparkline(list(range(500)), width=40)
        assert len(line) == 40


class TestRoundTrace:
    @pytest.fixture(scope="class")
    def result(self, ):
        from repro.gpu.config import GPUSpec, MachineSpec

        machine = MachineSpec(
            num_gpus=2, gpu=GPUSpec(num_smxs=2, warp_slots_per_smx=2),
            transfer_batch_bytes=1 << 20,
        )
        graph = scc_profile_graph(120, 4.0, 0.5, 4.0, seed=71)
        return DiGraphEngine(machine).run(graph, PageRank())

    def test_summary_mentions_engine(self, result):
        summary = round_trace_summary(result)
        assert "digraph" in summary
        assert "processed" in summary
