"""Unit tests for the Fig. 4 storage layout and partitioning."""

import importlib

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.baselines.common import resolve_partition_target
from repro.bench.runner import make_engine
from repro.core.dependency import build_dependency_dag
from repro.core.partitioning import decompose_into_paths
from repro.core.storage import PathStorage, build_partitions
from repro.errors import StorageError
from repro.graph.generators import directed_path, scc_profile_graph


@pytest.fixture
def setup():
    g = scc_profile_graph(150, 4.0, 0.5, 4.0, seed=1)
    ps = decompose_into_paths(g)
    dag = build_dependency_dag(ps)
    partitions = build_partitions(ps, dag, target_edges_per_partition=40)
    storage = PathStorage(ps, partitions)
    return g, ps, dag, partitions, storage


class TestPartitions:
    def test_cover_all_paths_once(self, setup):
        _, ps, _, partitions, _ = setup
        covered = sorted(p for part in partitions for p in part.path_ids)
        assert covered == list(range(ps.num_paths))

    def test_layers_never_mixed(self, setup):
        _, _, dag, partitions, _ = setup
        for part in partitions:
            layers = {dag.layer_of_path(p) for p in part.path_ids}
            assert len(layers) == 1

    def test_partition_sizes_reasonable(self, setup):
        _, _, _, partitions, _ = setup
        # No partition more than 2x the target (except unsplittable).
        for part in partitions:
            assert part.num_edges <= 2 * 40 + 40

    def test_nbytes_positive(self, setup):
        _, _, _, partitions, storage = setup
        for part in partitions:
            assert part.nbytes > 0
            assert storage.partition_bytes(part.partition_id) == part.nbytes

    def test_invalid_target(self, setup):
        _, ps, dag, _, _ = setup
        with pytest.raises(StorageError):
            build_partitions(ps, dag, target_edges_per_partition=0)

    def test_hot_paths_lead_their_scc(self):
        g = scc_profile_graph(200, 5.0, 0.6, 4.0, seed=2)
        ps = decompose_into_paths(g, hot_fraction=0.2)
        dag = build_dependency_dag(ps)
        partitions = build_partitions(ps, dag, 1000000)
        # Within each partition's per-SCC ordering, hot paths come first.
        for part in partitions:
            by_scc = {}
            for p in part.path_ids:
                by_scc.setdefault(int(dag.scc_of_path[p]), []).append(p)
            for scc_paths in by_scc.values():
                seen_cold = False
                for p in scc_paths:
                    if ps.is_hot(p):
                        assert not seen_cold
                    else:
                        seen_cold = True


class TestStorageArrays:
    def test_ptable_shape(self, setup):
        _, ps, _, _, storage = setup
        assert storage.ptable.size == ps.num_paths + 1
        assert storage.ptable[0] == 0

    def test_path_vertices_roundtrip(self, setup):
        _, ps, _, _, storage = setup
        for path_id, vertices in enumerate(ps.sequences):
            stored = storage.path_vertices(path_id)
            assert stored.tolist() == list(vertices)

    def test_validate(self, setup):
        storage = setup[4]
        storage.validate()

    def test_eval_matches_weights(self):
        from repro.graph.generators import with_random_weights

        g = with_random_weights(directed_path(6), seed=3)
        ps = decompose_into_paths(g)
        dag = build_dependency_dag(ps)
        storage = PathStorage(ps, build_partitions(ps, dag, 100))
        # single path: e_val equals edge weights along it
        edge_ids = ps.edges_of(0)
        expected = [float(g.weights[e]) for e in edge_ids]
        start = int(storage.ptable[int(storage.slot_of_path[0])])
        got = storage.e_val[start : start + len(edge_ids)].tolist()
        assert got == pytest.approx(expected)

    def test_partition_of_path(self, setup):
        _, _, _, partitions, storage = setup
        for part in partitions:
            for p in part.path_ids:
                assert storage.partition_of_path(p) == part.partition_id

    def test_partitions_must_cover(self):
        g = directed_path(4)
        ps = decompose_into_paths(g)
        dag = build_dependency_dag(ps)
        partitions = build_partitions(ps, dag, 100)
        partitions[0].path_ids.pop()
        with pytest.raises(StorageError):
            PathStorage(ps, partitions)

    def test_total_bytes(self, setup):
        _, _, _, partitions, storage = setup
        assert storage.total_bytes() == sum(p.nbytes for p in partitions)

    def test_adaptive_target(self):
        g = scc_profile_graph(300, 5.0, 0.5, 4.0, seed=5)
        assert resolve_partition_target(g, None) >= 32
        assert resolve_partition_target(g, 77) == 77


class TestChargedRecordSizes:
    """Every global-memory charge prices its records with the
    ``repro.core.storage`` constants, not a literal of the same value:
    raising one constant by ``k`` bytes raises the run's
    ``global_load_bytes`` by ``k`` times the records it prices, and
    moves no count."""

    @staticmethod
    def _run(monkeypatch, engine_name, module, constant, value, graph, machine):
        monkeypatch.setattr(f"{module}.{constant}", value)
        engine = make_engine(engine_name, machine)
        return engine.run(graph, make_program("pagerank", graph)).stats

    @pytest.mark.parametrize(
        "engine_name, module, constant",
        [
            ("bulk-sync", "repro.baselines.bulk_sync", "BYTES_PER_STATE"),
            ("bulk-sync-vec", "repro.baselines.bulk_sync", "BYTES_PER_STATE"),
            ("async", "repro.baselines.async_engine", "BYTES_PER_STATE"),
            ("digraph", "repro.core.engine", "BYTES_PER_VERTEX_RECORD"),
            ("digraph", "repro.core.engine", "BYTES_PER_EDGE_VALUE"),
            ("digraph", "repro.core.engine", "BYTES_PER_STATE"),
            ("digraph-t", "repro.core.engine", "BYTES_PER_STATE"),
        ],
    )
    def test_load_bytes_follow_the_constant(
        self, monkeypatch, medium_graph, test_machine, engine_name, module,
        constant,
    ):
        base = getattr(importlib.import_module(module), constant)
        runs = [
            self._run(
                monkeypatch, engine_name, module, constant, base + k,
                medium_graph, test_machine,
            )
            for k in (0, 1, 2)
        ]
        bytes_ = [stats.global_load_bytes for stats in runs]
        priced = bytes_[1] - bytes_[0]
        assert 0 < priced <= runs[0].vertices_loaded + runs[0].edge_traversals
        assert bytes_[2] - bytes_[0] == 2 * priced
        for stats in runs[1:]:
            assert stats.vertices_loaded == runs[0].vertices_loaded
            assert stats.edge_traversals == runs[0].edge_traversals
            assert stats.vertex_updates == runs[0].vertex_updates
