"""Unit/behavioral tests for the DiGraph engine."""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.core.engine import DiGraphConfig, DiGraphEngine, Preprocessed
from repro.errors import ConfigurationError, ConvergenceError
from repro.graph.builder import from_edges
from repro.graph.generators import (
    bowtie_graph,
    directed_path,
    scc_profile_graph,
    with_random_weights,
)
from repro.graph.traversal import bfs_levels


class TestConfig:
    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            DiGraphConfig(max_rounds=0)
        with pytest.raises(ConfigurationError):
            DiGraphConfig(advance_factor=-1)

    def test_labels(self, test_machine):
        assert DiGraphEngine(test_machine).engine_label() == "digraph"
        assert (
            DiGraphEngine(
                test_machine, DiGraphConfig(use_path_execution=False)
            ).engine_label()
            == "digraph-t"
        )
        assert (
            DiGraphEngine(
                test_machine, DiGraphConfig(use_priority_scheduling=False)
            ).engine_label()
            == "digraph-w"
        )


class TestPreprocess:
    def test_artifacts_consistent(self, medium_graph, test_machine):
        pre = DiGraphEngine(test_machine).preprocess(medium_graph)
        pre.path_set.validate()
        pre.storage.validate()
        assert pre.modeled_seconds > 0
        assert pre.wall_seconds > 0

    def test_preprocessed_reusable(self, medium_graph, test_machine):
        engine = DiGraphEngine(test_machine)
        pre = engine.preprocess(medium_graph)
        a = engine.run(medium_graph, PageRank(), preprocessed=pre)
        b = engine.run(medium_graph, PageRank(), preprocessed=pre)
        assert np.array_equal(a.states, b.states)


class TestPartitionLift:
    """The partition-level lift is a pure function of one ``Preprocessed``:
    built on first use, kept on that object, never anywhere else."""

    @pytest.fixture
    def lifts(self, monkeypatch):
        import repro.core.dispatch as dispatch

        calls = []
        original = dispatch._partition_dependency_edges

        def counted(storage, dag):
            calls.append((storage, dag))
            return original(storage, dag)

        monkeypatch.setattr(dispatch, "_partition_dependency_edges", counted)
        return calls

    def test_four_runs_lift_once(self, medium_graph, test_machine, lifts):
        engine = DiGraphEngine(test_machine)
        pre = engine.preprocess(medium_graph)
        assert lifts == []  # lazily: preprocessing alone does not lift
        for algo in ("pagerank", "bfs", "wcc", "pagerank"):
            engine.run(
                medium_graph, make_program(algo, medium_graph), preprocessed=pre
            )
        assert lifts == [(pre.storage, pre.dag)]

    def test_hand_built_preprocessed_lifts_its_own(
        self, medium_graph, test_machine, lifts
    ):
        engine = DiGraphEngine(test_machine)
        pre = engine.preprocess(medium_graph)
        engine.run(medium_graph, PageRank(), preprocessed=pre)
        rebuilt = Preprocessed(
            path_set=pre.path_set,
            dag=pre.dag,
            storage=pre.storage,
            replicas=pre.replicas,
            modeled_seconds=pre.modeled_seconds,
            wall_seconds=pre.wall_seconds,
        )
        engine.run(medium_graph, PageRank(), preprocessed=rebuilt)
        assert len(lifts) == 2
        ours, theirs = rebuilt.partition_dependencies, pre.partition_dependencies
        assert ours is not theirs
        assert (ours.edges, ours.groups) == (theirs.edges, theirs.groups)

    def test_streaming_batches_never_see_a_stale_lift(
        self, test_machine, lifts
    ):
        from repro.streaming import Mutation, MutationBatch, StreamingSession

        graph = scc_profile_graph(80, 3.0, 0.4, 4.0, seed=11)
        session = StreamingSession(graph, "pagerank", machine_spec=test_machine)
        assert len(lifts) == 1  # the cold start
        batch = MutationBatch(
            [Mutation.insert(3, 70), Mutation.insert(70, 5)]
        )
        outcome = session.apply(batch, certify=True)
        assert outcome.certification.passed
        # One lift for the repaired decomposition, one for the golden
        # rebuild — each over that run's own storage and DAG.
        assert len(lifts) == 3
        assert len({id(storage) for storage, _ in lifts}) == 3

    def test_execution_tables_follow_their_preprocess(
        self, medium_graph, test_machine, monkeypatch
    ):
        """The flat execution tables live where the lift lives: built on
        the first run over a ``Preprocessed``, shared by later runs, and
        built afresh — over its own storage — for every decomposition a
        streaming repair or a golden rebuild produces."""
        from repro.core.tables import ExecutionTables
        from repro.streaming import Mutation, MutationBatch, StreamingSession

        built = []
        original = ExecutionTables.build.__func__

        def counted(cls, path_set, dag, storage, replicas, lifted):
            built.append(storage)
            return original(cls, path_set, dag, storage, replicas, lifted)

        monkeypatch.setattr(ExecutionTables, "build", classmethod(counted))

        engine = DiGraphEngine(test_machine)
        pre = engine.preprocess(medium_graph)
        assert built == []
        for algo in ("pagerank", "bfs", "wcc"):
            engine.run(
                medium_graph, make_program(algo, medium_graph), preprocessed=pre
            )
        assert built == [pre.storage]

        del built[:]
        graph = scc_profile_graph(80, 3.0, 0.4, 4.0, seed=11)
        session = StreamingSession(graph, "pagerank", machine_spec=test_machine)
        assert len(built) == 1  # the cold start
        outcome = session.apply(
            MutationBatch([Mutation.insert(3, 70), Mutation.insert(70, 5)]),
            certify=True,
        )
        assert outcome.certification.passed
        # The repaired decomposition and the golden rebuild each run over
        # tables cut from their own storage arrays, never the cold start's.
        assert len(built) == 3
        assert len({id(storage) for storage in built}) == 3
        repaired = built[1]
        assert repaired.path_set.graph is outcome.applied.graph


class TestCorrectness:
    def test_bfs_exact(self, medium_graph, test_machine):
        prog = make_program("bfs", medium_graph)
        result = DiGraphEngine(test_machine).run(medium_graph, prog)
        oracle = bfs_levels(medium_graph, prog.source).astype(float)
        oracle[oracle < 0] = np.inf
        assert np.array_equal(result.states, oracle)

    def test_sssp_matches_bellman_ford(self, test_machine):
        g = with_random_weights(
            scc_profile_graph(120, 4.0, 0.5, 4.0, seed=2), seed=3
        )
        prog = make_program("sssp", g)
        result = DiGraphEngine(test_machine).run(g, prog)
        # reference Bellman-Ford
        dist = np.full(g.num_vertices, np.inf)
        dist[prog.source] = 0.0
        for _ in range(g.num_vertices):
            for src, dst, w in g.edges():
                if dist[src] + w < dist[dst]:
                    dist[dst] = dist[src] + w
        finite = np.isfinite(dist)
        assert np.array_equal(np.isfinite(result.states), finite)
        assert np.allclose(result.states[finite], dist[finite])

    def test_pagerank_fixed_point_residual(self, medium_graph, test_machine):
        prog = PageRank(tolerance=1e-6)
        result = DiGraphEngine(test_machine).run(medium_graph, prog)
        g = medium_graph
        outdeg = g.out_degree().astype(float)
        worst = 0.0
        for v in range(g.num_vertices):
            acc = sum(
                result.states[u] / outdeg[u]
                for u in g.predecessors(v)
                if outdeg[u] > 0
            )
            worst = max(worst, abs(result.states[v] - (0.15 + 0.85 * acc)))
        assert worst < 1e-4

    def test_isolated_vertices_converge(self, test_machine):
        g = from_edges([(0, 1)], num_vertices=5)
        result = DiGraphEngine(test_machine).run(g, PageRank())
        assert result.converged
        # isolated vertices get the base rank
        assert result.states[3] == pytest.approx(0.15)

    def test_deterministic(self, medium_graph, test_machine):
        a = DiGraphEngine(test_machine).run(medium_graph, PageRank())
        b = DiGraphEngine(test_machine).run(medium_graph, PageRank())
        assert np.array_equal(a.states, b.states)
        assert a.vertex_updates == b.vertex_updates

    def test_convergence_error_raised(self, medium_graph, test_machine):
        engine = DiGraphEngine(test_machine, DiGraphConfig(max_rounds=1))
        with pytest.raises(ConvergenceError):
            engine.run(medium_graph, PageRank())

    def test_non_strict_returns_partial(self, medium_graph, test_machine):
        engine = DiGraphEngine(test_machine, DiGraphConfig(max_rounds=1))
        result = engine.run(
            medium_graph, PageRank(), strict_convergence=False
        )
        assert not result.converged


class TestObservation2:
    """Topological dispatch processes acyclic regions ~once."""

    def test_dag_needs_one_update_per_vertex(self, test_machine):
        # a pure out-tree: every vertex converges after one update
        g = from_edges([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        prog = make_program("bfs", g, source=0)
        result = DiGraphEngine(test_machine).run(g, prog)
        # 5 reachable non-source vertices -> exactly 5 updates
        assert result.vertex_updates == 5

    def test_bowtie_out_tail_processed_after_core(self, test_machine):
        g = bowtie_graph(core=8, in_tail=5, out_tail=5, seed=4)
        result = DiGraphEngine(test_machine).run(
            g, make_program("bfs", g, source=0)
        )
        assert result.converged


class TestMetricsAccounting:
    def test_result_counters_populated(self, medium_graph, test_machine):
        result = DiGraphEngine(test_machine).run(medium_graph, PageRank())
        assert result.vertex_updates > 0
        assert result.traffic_bytes > 0
        assert 0 < result.gpu_utilization <= 1
        assert result.data_utilization > 0
        assert result.rounds > 0
        assert result.stats.preprocess_time_s > 0

    def test_extras(self, medium_graph, test_machine):
        result = DiGraphEngine(test_machine).run(medium_graph, PageRank())
        assert result.extras["num_paths"] > 0
        assert result.extras["avg_path_length"] > 1.0
        assert 0 <= result.extras["giant_scc_path_fraction"] <= 1

    def test_round_records_monotone_updates(self, medium_graph, test_machine):
        result = DiGraphEngine(test_machine).run(medium_graph, PageRank())
        cumulative = [rec.vertex_updates for rec in result.round_records]
        assert cumulative == sorted(cumulative)
