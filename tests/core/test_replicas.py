"""Unit tests for replica/proxy bookkeeping."""

import random

import pytest

from repro.core.dependency import build_dependency_dag
from repro.core.partitioning import decompose_into_paths
from repro.core.replicas import ReplicaTable, replication_factor
from repro.core.storage import PathStorage, build_partitions
from repro.errors import StorageError
from repro.graph.generators import scc_profile_graph


@pytest.fixture
def table():
    g = scc_profile_graph(150, 4.0, 0.5, 4.0, seed=1)
    ps = decompose_into_paths(g)
    dag = build_dependency_dag(ps)
    storage = PathStorage(ps, build_partitions(ps, dag, 40))
    return g, ps, storage, ReplicaTable(
        ps, storage, proxy_in_degree_threshold=4, proxy_capacity=16
    )


class TestMirrors:
    def test_every_path_vertex_has_a_partition(self, table):
        _, ps, storage, replicas = table
        for path_id, vertices in enumerate(ps.sequences):
            for v in vertices:
                assert storage.partition_of_path(path_id) in (
                    replicas.mirror_partitions(v)
                )

    def test_isolated_vertex_has_none(self, table):
        g, _, _, replicas = table
        # Vertex ids beyond the graph never appear.
        assert replicas.mirror_partitions(10 ** 6) == ()
        assert replicas.replica_count(10 ** 6) == 0

    def test_owner_is_a_mirror(self, table):
        g, _, _, replicas = table
        for v in range(g.num_vertices):
            owner = replicas.owner_partition(v)
            if owner is not None:
                assert owner in replicas.mirror_partitions(v)

    def test_writer_partitions_subset_of_mirrors(self, table):
        g, _, _, replicas = table
        for v in range(g.num_vertices):
            for pid in replicas.writer_partitions(v):
                assert pid in replicas.mirror_partitions(v)

    def test_replication_factor_at_least_one(self, table):
        _, ps, _, replicas = table
        assert replication_factor(replicas, ps) >= 1.0


class TestSync:
    def test_messages_to_remote_mirrors_only(self, table):
        g, _, storage, replicas = table
        v = next(
            v for v in range(g.num_vertices)
            if replicas.replica_count(v) >= 2
        )
        home = replicas.mirror_partitions(v)[0]
        messages = replicas.messages_per_destination(home, [v])
        assert messages.sum() == replicas.replica_count(v) - 1
        assert messages[home] == 0
        assert messages.size == storage.num_partitions

    def test_batching_counts_destinations(self, table):
        g, _, _, replicas = table
        vs = [
            v for v in range(g.num_vertices)
            if replicas.replica_count(v) >= 2
        ][:5]
        messages = replicas.messages_per_destination(-1, vs)
        assert messages.sum() == sum(replicas.replica_count(v) for v in vs)
        assert set(messages.nonzero()[0].tolist()) == {
            dest for v in vs for dest in replicas.mirror_partitions(v)
        }

    def test_no_changes_no_messages(self, table):
        replicas = table[3]
        messages = replicas.messages_per_destination(0, [])
        assert not messages.any()


class TestProxies:
    def test_capacity_respected(self, table):
        replicas = table[3]
        assert replicas.num_proxied <= 16

    def test_proxied_absorb_contention(self, table):
        g, _, _, replicas = table
        proxied = next(
            (v for v in range(g.num_vertices) if replicas.has_proxy(v)), None
        )
        if proxied is None:
            pytest.skip("no proxied vertex in this graph")
        outcome = replicas.contention([proxied] * 5)
        assert outcome.atomic_updates == 1
        assert outcome.proxy_absorbed == 4

    def test_unproxied_pay_per_write(self, table):
        g, _, _, replicas = table
        cold = next(
            v for v in range(g.num_vertices) if not replicas.has_proxy(v)
        )
        outcome = replicas.contention([cold] * 5)
        assert outcome.atomic_updates == 5
        assert outcome.proxy_absorbed == 0

    def test_invalid_construction(self, table):
        _, ps, storage, _ = table
        with pytest.raises(StorageError):
            ReplicaTable(ps, storage, proxy_in_degree_threshold=0)
        with pytest.raises(StorageError):
            ReplicaTable(ps, storage, proxy_capacity=-1)


# ----------------------------------------------------------------------
# the pass-end pricing against the per-vertex dict loops it replaced
# ----------------------------------------------------------------------
def reference_contention(replicas, writes):
    """``(atomic_updates, proxy_absorbed, total_writes)`` from a
    vertex -> write-count dict, one vertex at a time."""
    write_counts = {}
    for v in writes:
        write_counts[v] = write_counts.get(v, 0) + 1
    atomics = absorbed = total = 0
    for v, count in write_counts.items():
        total += count
        if replicas.has_proxy(v):
            atomics += 1
            absorbed += count - 1
        else:
            atomics += count
    return atomics, absorbed, total


def reference_messages(replicas, partition_id, changed):
    """Messages per destination partition, one vertex at a time."""
    per_destination = {}
    for v in changed:
        for dest in replicas.mirror_partitions(v):
            if dest != partition_id:
                per_destination[dest] = per_destination.get(dest, 0) + 1
    return per_destination


@pytest.fixture(scope="module")
def shared_table():
    g = scc_profile_graph(150, 4.0, 0.5, 4.0, seed=1)
    ps = decompose_into_paths(g)
    storage = PathStorage(ps, build_partitions(ps, build_dependency_dag(ps), 40))
    return g, storage, ReplicaTable(
        ps, storage, proxy_in_degree_threshold=4, proxy_capacity=16
    )


@pytest.mark.parametrize("seed", range(40))
def test_pass_end_pricing_matches_the_dict_loops(shared_table, seed):
    g, storage, replicas = shared_table
    rng = random.Random(seed)
    # Repeats (a vertex written in several local iterations), proxied
    # vertices included; the pass's own partition or none (-1).
    writes = [
        rng.randrange(g.num_vertices) for _ in range(rng.randrange(0, 80))
    ]
    writes += rng.sample(sorted(replicas.proxied_vertices), 3) * 2
    partition_id = rng.choice([-1, *range(storage.num_partitions)])
    outcome = replicas.contention(writes)
    assert (
        outcome.atomic_updates, outcome.proxy_absorbed, outcome.total_writes
    ) == reference_contention(replicas, writes)
    expected = reference_messages(replicas, partition_id, set(writes))
    counts = replicas.messages_per_destination(partition_id, set(writes))
    assert {
        dest: int(n) for dest, n in enumerate(counts.tolist()) if n
    } == expected
