"""Mutation trace generator, `repro stream` CLI, and the experiment."""

import pytest

from repro.cli import main
from repro.errors import GraphError
from repro.graph.generators import mutation_trace, scc_profile_graph
from repro.graph.io import write_edge_list
from repro.streaming import apply_batch
from repro.streaming.mutations import EDGE_DELETE, EDGE_INSERT


@pytest.fixture
def small_graph():
    return scc_profile_graph(
        n=40, avg_degree=3.0, giant_scc_fraction=0.4,
        avg_distance=3.0, seed=5,
    )


class TestMutationTrace:
    def test_deterministic_for_seed(self, small_graph):
        a = mutation_trace(small_graph, n_batches=3, seed=9, batch_size=6)
        b = mutation_trace(small_graph, n_batches=3, seed=9, batch_size=6)
        assert a == b
        c = mutation_trace(small_graph, n_batches=3, seed=10, batch_size=6)
        assert a != c

    def test_batches_apply_cleanly_in_sequence(self, small_graph):
        """Every generated batch is valid against the evolving graph."""
        graph = small_graph
        for batch in mutation_trace(
            graph, n_batches=4, seed=3, batch_size=8, mix="mixed"
        ):
            assert len(batch) == 8
            graph = apply_batch(graph, batch).graph

    def test_mix_shapes(self, small_graph):
        inserts = mutation_trace(
            small_graph, n_batches=2, seed=1, batch_size=10, mix="insert"
        )
        kinds = {m.kind for b in inserts for m in b.mutations}
        assert kinds == {EDGE_INSERT}
        deletes = mutation_trace(
            small_graph, n_batches=2, seed=1, batch_size=10, mix="delete"
        )
        kinds = [m.kind for b in deletes for m in b.mutations]
        assert kinds.count(EDGE_DELETE) > kinds.count(EDGE_INSERT)

    def test_argument_validation(self, small_graph):
        with pytest.raises(GraphError, match="n_batches"):
            mutation_trace(small_graph, n_batches=-1, seed=0)
        with pytest.raises(GraphError, match="batch_size"):
            mutation_trace(small_graph, n_batches=1, seed=0, batch_size=0)
        with pytest.raises(GraphError, match="unknown trace mix"):
            mutation_trace(small_graph, n_batches=1, seed=0, mix="chaos")


class TestStreamCLI:
    def test_stream_on_edge_list_strict(
        self, tmp_path, small_graph, capsys
    ):
        path = tmp_path / "graph.txt"
        write_edge_list(small_graph, path)
        assert (
            main(
                [
                    "stream",
                    "--edge-list",
                    str(path),
                    "--algorithms",
                    "sssp",
                    "pagerank",
                    "--batches",
                    "2",
                    "--batch-size",
                    "4",
                    "--strict",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cert=ok" in out
        assert "speedup" in out

    def test_stream_without_certification(
        self, tmp_path, small_graph, capsys
    ):
        path = tmp_path / "graph.txt"
        write_edge_list(small_graph, path)
        assert (
            main(
                [
                    "stream",
                    "--edge-list",
                    str(path),
                    "--algorithms",
                    "wcc",
                    "--batches",
                    "1",
                    "--batch-size",
                    "3",
                    "--mix",
                    "insert",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mode=resume" in out
        assert "cert=" not in out


class TestStreamSpeedupExperiment:
    def test_reports_incremental_beats_rebuild(self):
        from repro.bench.experiments import stream_speedup

        out = stream_speedup(
            scale=0.1,
            graphs=("cnr",),
            algos=("sssp",),
            stream_batches=2,
            stream_batch_size=3,
        )
        assert out["rows"]
        for per_graph in out["results"].values():
            for cell in per_graph.values():
                assert cell["certified"]
                assert cell["incremental_s"] < cell["rebuild_s"]
        assert "incremental vs full rebuild" in out["table"]
