"""Tests for the DiGraph-t / DiGraph-w ablation rows of the engine registry."""

from dataclasses import replace

import pytest

from repro.algorithms.pagerank import PageRank
from repro.bench.results import states_close
from repro.bench.runner import make_engine
from repro.core.engine import DiGraphConfig, DiGraphEngine

#: The config each ablation ran on before it was a registry row: the
#: base config with these flags replaced.
ABLATION_FLAGS = {
    "digraph-t": {"use_path_execution": False, "use_priority_scheduling": False},
    "digraph-w": {"use_priority_scheduling": False},
}


class TestVariantConstruction:
    @pytest.mark.parametrize("name", list(ABLATION_FLAGS))
    def test_row_builds_the_ablation_config(self, name, test_machine):
        engine = make_engine(name, test_machine, n_workers=2)
        assert type(engine) is DiGraphEngine
        assert engine.spec is test_machine
        assert engine.config == replace(
            DiGraphConfig(n_workers=2), **ABLATION_FLAGS[name]
        )
        assert engine.engine_label() == name

    def test_digraph_w_keeps_path_execution(self, test_machine):
        engine = make_engine("digraph-w", test_machine)
        assert engine.config.use_path_execution
        assert not engine.config.use_priority_scheduling


class TestVariantBehavior:
    def test_all_reach_same_fixed_point(self, medium_graph, test_machine):
        prog = PageRank(tolerance=1e-6)
        full = DiGraphEngine(test_machine).run(medium_graph, prog)
        for name in ABLATION_FLAGS:
            variant = make_engine(name, test_machine).run(
                medium_graph, PageRank(tolerance=1e-6)
            )
            assert states_close(full, variant, rtol=1e-2, atol=1e-2)

    def test_all_converge(self, medium_graph, test_machine):
        for name in ABLATION_FLAGS:
            result = make_engine(name, test_machine).run(
                medium_graph, PageRank()
            )
            assert result.converged
