"""Streaming partitioner: bit-identity, chunk sources, policies, errors.

The load-bearing invariant is that a store built from *any* edge-chunk
stream, under *any* policy, materializes back to the exact CSR arrays
the in-RAM :class:`~repro.graph.builder.GraphBuilder` would produce
from the same stream — partitioning must never change results, only
where bytes live.
"""

import os

import numpy as np
import pytest

from repro.errors import StorageError
from repro.graph.builder import GraphBuilder
from repro.graph.io import (
    edge_list_chunk_source,
    npz_chunk_source,
    save_npz,
    write_edge_list,
)
from repro.storage import (
    GRAPH_MANIFEST_NAME,
    PARTITION_POLICIES,
    ResidentTracker,
    ShardedGraph,
    graph_chunk_source,
    partition_graph,
    shard_dirname,
    synthetic_chunk_source,
)

from tests.storage.conftest import graph_digest


def build_from_chunks(source) -> object:
    builder = GraphBuilder()
    for src, dst, weight in source():
        builder.add_edge_arrays(src, dst, weight)
    return builder.build()


class TestBitIdentity:
    @pytest.mark.parametrize("policy", PARTITION_POLICIES)
    def test_materialize_matches_in_ram_build(
        self, tmp_path, cnr_graph, policy
    ):
        source = graph_chunk_source(cnr_graph, chunk_edges=64)
        partition_graph(source, 4, str(tmp_path / "s"), policy=policy)
        out = ShardedGraph(str(tmp_path / "s")).materialize()
        assert graph_digest(out) == graph_digest(cnr_graph)

    def test_weighted_graph_roundtrip(self, tmp_path, weighted_graph):
        source = graph_chunk_source(weighted_graph, chunk_edges=97)
        partition_graph(source, 3, str(tmp_path / "s"))
        out = ShardedGraph(str(tmp_path / "s")).materialize()
        assert graph_digest(out) == graph_digest(weighted_graph)

    def test_chunk_size_does_not_change_store_contents(
        self, tmp_path, cnr_graph
    ):
        digests = []
        for chunk_edges in (17, 100, 10_000):
            out = str(tmp_path / f"s{chunk_edges}")
            partition_graph(
                graph_chunk_source(cnr_graph, chunk_edges=chunk_edges),
                4,
                out,
                seed=3,
            )
            digests.append(
                graph_digest(ShardedGraph(out).materialize())
            )
        assert len(set(digests)) == 1

    def test_edge_list_file_roundtrip(self, tmp_path, cnr_graph):
        path = str(tmp_path / "graph.txt")
        write_edge_list(cnr_graph, path)
        partition_graph(
            edge_list_chunk_source(path, chunk_edges=50),
            3,
            str(tmp_path / "s"),
        )
        out = ShardedGraph(str(tmp_path / "s")).materialize()
        # The edge-list stream arrives in CSR order, so the rebuild
        # matches the original graph bit for bit.
        assert graph_digest(out) == graph_digest(cnr_graph)

    def test_npz_archive_roundtrip(self, tmp_path, weighted_graph):
        path = str(tmp_path / "graph.npz")
        save_npz(weighted_graph, path)
        partition_graph(
            npz_chunk_source(path, chunk_edges=64),
            3,
            str(tmp_path / "s"),
        )
        out = ShardedGraph(str(tmp_path / "s")).materialize()
        assert graph_digest(out) == graph_digest(weighted_graph)

    def test_repartition_store_to_different_part_count(
        self, tmp_path, cnr_graph
    ):
        first = str(tmp_path / "p3")
        partition_graph(
            graph_chunk_source(cnr_graph, chunk_edges=100), 3, first
        )
        # Re-shard the on-disk store itself (what `repro resume --gpus`
        # does) — still bit-identical after two generations.
        second = str(tmp_path / "p5")
        partition_graph(
            ShardedGraph(first).edge_chunk_source(chunk_edges=64),
            5,
            second,
            policy="random",
        )
        out = ShardedGraph(second).materialize()
        assert graph_digest(out) == graph_digest(cnr_graph)

    def test_synthetic_stream_matches_in_ram_build(self, tmp_path):
        source = synthetic_chunk_source(300, 2_000, seed=5, chunk_edges=256)
        partition_graph(source, 4, str(tmp_path / "s"), num_vertices=300)
        out = ShardedGraph(str(tmp_path / "s")).materialize()
        assert graph_digest(out) == graph_digest(build_from_chunks(source))


class TestChunkSources:
    def test_synthetic_source_replays_identically(self):
        source = synthetic_chunk_source(100, 1_000, seed=9, chunk_edges=128)
        first = list(source())
        second = list(source())
        assert len(first) == len(second) == 8
        for (s1, d1, w1), (s2, d2, w2) in zip(first, second):
            np.testing.assert_array_equal(s1, s2)
            np.testing.assert_array_equal(d1, d2)
            np.testing.assert_array_equal(w1, w2)

    def test_synthetic_source_has_no_self_loops(self):
        for src, dst, _w in synthetic_chunk_source(50, 5_000, seed=1)():
            assert not np.any(src == dst)

    def test_graph_source_covers_every_edge(self, cnr_graph):
        chunks = list(graph_chunk_source(cnr_graph, chunk_edges=100)())
        assert sum(s.size for s, _d, _w in chunks) == cnr_graph.num_edges

    def test_in_ram_graph_accepted_directly(self, tmp_path, cnr_graph):
        partition_graph(cnr_graph, 2, str(tmp_path / "s"))
        out = ShardedGraph(str(tmp_path / "s")).materialize()
        assert graph_digest(out) == graph_digest(cnr_graph)

    def test_rejects_non_source(self, tmp_path):
        with pytest.raises(StorageError, match="chunk source"):
            partition_graph(42, 2, str(tmp_path / "s"))


class TestPartitionErrors:
    def test_rejects_zero_parts(self, tmp_path, cnr_graph):
        with pytest.raises(StorageError, match="num_parts"):
            partition_graph(cnr_graph, 0, str(tmp_path / "s"))

    def test_rejects_unknown_policy(self, tmp_path, cnr_graph):
        with pytest.raises(StorageError, match="unknown partition policy"):
            partition_graph(
                cnr_graph, 2, str(tmp_path / "s"), policy="metis"
            )

    def test_rejects_empty_stream(self, tmp_path):
        with pytest.raises(StorageError, match="empty edge stream"):
            partition_graph([], 2, str(tmp_path / "s"))

    def test_rejects_endpoint_outside_fixed_vertex_count(self, tmp_path):
        chunk = (
            np.array([0, 99], dtype=np.int64),
            np.array([1, 0], dtype=np.int64),
            np.ones(2),
        )
        with pytest.raises(StorageError, match="outside fixed vertex"):
            partition_graph(
                [chunk], 2, str(tmp_path / "s"), num_vertices=10
            )

    @pytest.mark.parametrize("policy", PARTITION_POLICIES)
    def test_rejects_source_that_does_not_replay(self, tmp_path, policy):
        good = (np.array([0, 1]), np.array([1, 2]), np.ones(2))
        one_shot = iter([good])
        out = tmp_path / "s"
        with pytest.raises(
            StorageError, match="scanned 2 edges, pass 4 routed 0"
        ):
            partition_graph(lambda: one_shot, 2, str(out), policy=policy)
        # Nothing was committed and nothing half-built is left behind.
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "bad, message",
        [
            pytest.param(
                (np.array([0, 1]), np.array([1, -2]), np.ones(2)),
                "chunk 1: negative vertex id -2",
                id="negative-destination",
            ),
            pytest.param(
                (np.array([-1, 1]), np.array([1, 2]), np.ones(2)),
                "chunk 1: negative vertex id -1",
                id="negative-source",
            ),
            pytest.param(
                (np.array([0, 1, 2]), np.array([1, 2]), np.ones(3)),
                "chunk 1: src, dst and weight hold 3, 2 and 3 entries",
                id="unequal-lengths",
            ),
            pytest.param(
                (np.array([], dtype=np.int64), np.array([1]), np.ones(1)),
                "chunk 1: src, dst and weight hold 0, 1 and 1 entries",
                id="empty-source-only",
            ),
        ],
    )
    def test_rejects_malformed_chunk(self, tmp_path, bad, message):
        good = (np.array([0, 1]), np.array([1, 2]), np.ones(2))
        out = tmp_path / "s"
        tracker = ResidentTracker()
        with pytest.raises(StorageError, match=message):
            partition_graph([good, bad], 2, str(out), tracker=tracker)
        assert os.listdir(out) == []
        assert tracker.current_bytes == 0

    def test_failed_build_removes_its_spill_files(
        self, tmp_path, cnr_graph, monkeypatch
    ):
        from repro.storage import partition as partition_module

        build = partition_module._build_shard

        def fail_on_third(out_dir, part, *rest):
            if part == 2:
                raise StorageError("disk full", shard=part)
            return build(out_dir, part, *rest)

        monkeypatch.setattr(partition_module, "_build_shard", fail_on_third)
        out = tmp_path / "s"
        with pytest.raises(StorageError, match="disk full"):
            partition_graph(cnr_graph, 4, str(out))
        left = sorted(os.listdir(out))
        assert left == [shard_dirname(0), shard_dirname(1)]


class TestReportAndLayout:
    def test_report_totals_and_layout(self, tmp_path, cnr_graph):
        out = str(tmp_path / "s")
        report = partition_graph(
            graph_chunk_source(cnr_graph, chunk_edges=100), 4, out
        )
        assert report.num_vertices == cnr_graph.num_vertices
        assert report.num_edges == cnr_graph.num_edges
        assert sum(report.part_num_vertices) == cnr_graph.num_vertices
        assert sum(report.part_num_edges) == cnr_graph.num_edges
        assert 0 <= report.edge_cut <= cnr_graph.num_edges
        assert report.peak_resident_bytes > 0
        assert report.store_bytes > 0
        assert "part(s)" in report.summary()
        assert os.path.exists(os.path.join(out, GRAPH_MANIFEST_NAME))
        assert os.path.exists(os.path.join(out, "node_map.page"))
        assert os.path.exists(os.path.join(out, "edge_map.page"))
        for part in range(4):
            assert os.path.isdir(os.path.join(out, shard_dirname(part)))

    def test_single_part_has_zero_cut(self, tmp_path, cnr_graph):
        report = partition_graph(cnr_graph, 1, str(tmp_path / "s"))
        assert report.edge_cut == 0
        assert report.edge_cut_fraction == 0.0

    def test_edge_cut_matches_node_map(self, tmp_path, cnr_graph):
        out = str(tmp_path / "s")
        report = partition_graph(
            graph_chunk_source(cnr_graph, chunk_edges=100), 4, out
        )
        store = ShardedGraph(out).store
        node_map = np.asarray(store.node_map())
        sources = cnr_graph.edge_sources()
        cut = int(
            np.sum(node_map[sources] != node_map[cnr_graph.indices])
        )
        assert report.edge_cut == cut

    def test_edge_map_marks_owner_of_every_edge(self, tmp_path, cnr_graph):
        out = str(tmp_path / "s")
        partition_graph(
            graph_chunk_source(cnr_graph, chunk_edges=100), 4, out
        )
        store = ShardedGraph(out).store
        node_map = np.asarray(store.node_map())
        edge_map = np.asarray(store.edge_map())
        sources = cnr_graph.edge_sources()
        np.testing.assert_array_equal(edge_map, node_map[sources])

    def test_affinity_cuts_fewer_edges_than_random(
        self, tmp_path, cnr_graph
    ):
        # cnr is a structured locality-heavy stand-in: the
        # dependency-cluster policy must beat the hashed baseline on it.
        affinity = partition_graph(
            graph_chunk_source(cnr_graph), 4,
            str(tmp_path / "a"), policy="affinity",
        )
        random = partition_graph(
            graph_chunk_source(cnr_graph), 4,
            str(tmp_path / "r"), policy="random",
        )
        assert affinity.edge_cut < random.edge_cut

    def test_partition_is_deterministic(self, tmp_path, cnr_graph):
        reports = [
            partition_graph(
                graph_chunk_source(cnr_graph), 4,
                str(tmp_path / f"s{i}"), seed=11,
            )
            for i in range(2)
        ]
        assert reports[0].edge_cut == reports[1].edge_cut
        assert (
            reports[0].part_num_vertices == reports[1].part_num_vertices
        )
        first = open(
            os.path.join(str(tmp_path / "s0"), GRAPH_MANIFEST_NAME)
        ).read()
        second = open(
            os.path.join(str(tmp_path / "s1"), GRAPH_MANIFEST_NAME)
        ).read()
        assert first == second
