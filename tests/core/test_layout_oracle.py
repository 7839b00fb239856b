"""The preprocessing layout's array forms against the loops they replaced.

DAG layers (a level-synchronous peel), the partition order and cuts (one
``lexsort`` and a per-partition cut scan), ``PTable`` / ``E_Idx`` /
``E_val`` (one gather of ``PathSet.layout``), mirror partitions, writer
weights and owners (group-bys over sorted (vertex, partition) pairs) and
the replication factor are held to ``tests/core/layout_oracle.py`` array
for array: on the webbase and twitter stand-ins, on hypothesis-drawn DAGs
and path sets, and on the edge cases each rewrite had to get right.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.common import resolve_partition_target
from repro.core.dependency import build_dependency_dag
from repro.core.engine import DiGraphConfig, DiGraphEngine
from repro.core.partitioning import decompose_into_paths
from repro.core.paths import Path, PathSet
from repro.core.replicas import ReplicaTable, replication_factor
from repro.core.storage import PathStorage, build_partitions
from repro.errors import GraphError, StorageError
from repro.gpu.config import SCALED_MACHINE
from repro.graph import datasets
from repro.graph.builder import from_edges
from repro.graph.generators import mutation_trace
from repro.graph.traversal import dag_layers
from repro.streaming import StreamingSession
from tests.core import layout_oracle as oracle
from tests.core.test_dependency_oracle import hand_built, vertex_paths
from tests.property.test_partitioning_properties import multigraphs


def partition_rows(partitions):
    return [
        (p.partition_id, p.path_ids, p.layer, p.scc_vertices)
        for p in partitions
    ]


def assert_same_array(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def assert_layout_matches_oracle(path_set, target, partition_layer=None):
    """Every layout stage of ``path_set`` against its loop form; returns
    the array-form replica table and its oracle."""
    dag = build_dependency_dag(path_set)
    assert_same_array(dag.layer_of_scc, oracle.kahn_dag_layers(dag.dag))

    partitions = build_partitions(path_set, dag, target)
    expected = oracle.build_partitions(path_set, dag, target)
    assert partition_rows(partitions) == partition_rows(expected)
    assert all(
        type(p.layer) is int and all(type(i) is int for i in p.path_ids)
        for p in partitions
    )

    storage = PathStorage(path_set, partitions)
    loops = oracle.loop_storage(path_set, expected)
    for name in ("ptable", "e_idx", "e_val", "slot_of_path",
                 "partition_of_paths"):
        assert_same_array(getattr(storage, name), getattr(loops, name))
    assert [p.num_edges for p in partitions] == loops.num_edges
    assert [p.num_vertex_slots for p in partitions] == loops.num_vertex_slots
    storage.validate()

    replicas = ReplicaTable(path_set, storage)
    table = oracle.LoopReplicaTable(path_set, storage.partition_of_paths)
    assert_same_replicas(replicas, table, path_set.graph.num_vertices)
    assert replication_factor(replicas, path_set) == oracle.replication_factor(
        table, path_set
    )
    if partition_layer is None:
        partition_layer = np.zeros(storage.num_partitions, dtype=np.int64)
    replicas.set_layer_aware_owners(partition_layer)
    table.set_layer_aware_owners(partition_layer)
    assert_same_replicas(replicas, table, path_set.graph.num_vertices)
    return replicas, table


def assert_same_replicas(replicas, table, num_vertices):
    owners = replicas.owner_partitions()
    for v in range(num_vertices):
        assert replicas.mirror_partitions(v) == table.mirror_partitions.get(
            v, ()
        )
        writers = replicas.writer_partitions(v)
        assert list(writers.items()) == list(
            table.writer_partitions(v).items()
        )
        assert replicas.owner_partition(v) == table.owner_partition.get(v)
        assert owners[v] == table.owner_partition.get(v, -1)
    assert replicas.replicated_vertices() == tuple(
        sorted(table.mirror_partitions)
    )


# ----------------------------------------------------------------------
# the stand-ins, through the engine's own preprocess
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["webbase", "twitter"])
@pytest.mark.parametrize("n_workers", [1, 4])
def test_stand_ins_match_the_loops(name, n_workers):
    graph = datasets.load(name, scale=0.5)
    engine = DiGraphEngine(SCALED_MACHINE, DiGraphConfig(n_workers=n_workers))
    pre = engine.preprocess(graph)
    target = resolve_partition_target(graph, None)
    groups = pre.partition_dependencies.groups
    partition_layer = np.empty(pre.storage.num_partitions, dtype=np.int64)
    for group in groups:
        partition_layer[list(group.partition_ids)] = group.layer
    replicas, table = assert_layout_matches_oracle(
        pre.path_set, target, partition_layer
    )
    # The engine's owners are the same rule over the same groups.
    assert_same_array(
        pre.execution_tables.owner_partition, replicas.owner_partitions()
    )
    assert pre.replicas.proxied_vertices == replicas.proxied_vertices


# ----------------------------------------------------------------------
# hypothesis: DAGs, decompositions and arbitrary path sets
# ----------------------------------------------------------------------
@st.composite
def dags(draw):
    """DAGs under a random vertex labelling: parallel edges, isolated
    vertices and chains as long as the graph included."""
    n = draw(st.integers(min_value=0, max_value=16))
    rank = draw(st.permutations(range(n)))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)),
                      st.integers(0, max(n - 1, 0))),
            max_size=60 if n else 0,
        )
    )
    edges = [
        (rank[min(a, b)], rank[max(a, b)]) for a, b in pairs if a != b
    ]
    return from_edges(edges, num_vertices=n)


@settings(max_examples=150, deadline=None)
@given(graph=dags())
def test_peel_layers_are_the_longest_path_layers(graph):
    assert_same_array(dag_layers(graph), oracle.kahn_dag_layers(graph))


@settings(max_examples=40, deadline=None)
@given(graph=dags(), data=st.data())
def test_peel_rejects_a_cycle_as_kahn_does(graph, data):
    if graph.num_edges == 0:
        return
    edge = data.draw(st.integers(0, graph.num_edges - 1))
    src, dst = graph.edge_endpoints(edge)
    cyclic = from_edges(
        [(s, d) for s, d, _ in graph.edges()] + [(dst, src)],
        num_vertices=graph.num_vertices,
    )
    with pytest.raises(GraphError):
        oracle.kahn_dag_layers(cyclic)
    with pytest.raises(GraphError):
        dag_layers(cyclic)


@settings(max_examples=100, deadline=None)
@given(case=vertex_paths(), target=st.integers(1, 12), data=st.data())
def test_hand_built_path_sets_match_the_loops(case, target, data):
    sequences, n = case
    path_set = hand_built(sequences, n)
    path_set.hot_path_ids = frozenset(
        data.draw(st.sets(st.integers(0, max(path_set.num_paths - 1, 0))))
        if path_set.num_paths
        else ()
    )
    # Few distinct layers: nearly every layer-aware choice is a tie.
    num_partitions = len(
        build_partitions(path_set, build_dependency_dag(path_set), target)
    )
    partition_layer = np.asarray(
        data.draw(
            st.lists(
                st.integers(0, 2),
                min_size=num_partitions,
                max_size=num_partitions,
            )
        ),
        dtype=np.int64,
    )
    assert_layout_matches_oracle(path_set, target, partition_layer)


@settings(max_examples=60, deadline=None)
@given(
    graph=multigraphs(),
    d_max=st.integers(1, 8),
    flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    target=st.integers(1, 12),
)
def test_decompositions_match_the_loops(graph, d_max, flags, target):
    greedy, scc_aware, merge = flags
    path_set = decompose_into_paths(
        graph,
        d_max=d_max,
        degree_greedy=greedy,
        scc_aware=scc_aware,
        merge_short_paths=merge,
        hot_fraction=0.3,
    )
    assert_layout_matches_oracle(path_set, target)


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
def test_an_edge_less_graph_has_an_empty_layout():
    path_set = decompose_into_paths(from_edges([], num_vertices=5))
    assert path_set.num_paths == 0
    assert path_set.layout.vertices.size == 0
    replicas, _ = assert_layout_matches_oracle(path_set, 8)
    assert replicas.replicated_vertices() == ()
    assert replication_factor(replicas, path_set) == 0.0
    assert (replicas.owner_partitions() == -1).all()


def test_a_vertex_repeated_on_one_path_counts_every_writer_slot():
    # Vertex 1 is entered twice, vertex 0 once (its first slot is the head).
    path_set = hand_built([[0, 1, 2, 1, 3, 0]], 4)
    replicas, _ = assert_layout_matches_oracle(path_set, 100)
    assert replicas.writer_partitions(1) == {0: 2}
    assert replicas.writer_partitions(0) == {0: 1}
    assert replicas.replica_count(1) == 1


def test_numpy_scalar_vertices_give_the_same_layout():
    plain = hand_built([[0, 1, 2], [2, 3], [3, 0, 1]], 4)
    scalar = PathSet(
        graph=plain.graph,
        paths=[
            Path(
                path_id=p.path_id,
                vertices=tuple(np.int64(v) for v in p.vertices),
                edge_ids=tuple(np.int32(e) for e in p.edge_ids),
            )
            for p in plain
        ],
    )
    for name in ("vertices", "edge_ids", "lengths", "starts"):
        assert_same_array(
            getattr(scalar.layout, name), getattr(plain.layout, name)
        )
    replicas, _ = assert_layout_matches_oracle(scalar, 2)
    assert all(
        type(pid) is int
        for v in range(4)
        for pid in replicas.mirror_partitions(v)
    )


def test_ties_break_as_the_loops_do():
    # Paths 0 and 1 are layer-0 SCC-vertices whose successors are paths
    # 2 and 3 (a tie in successor-path count); each writes vertex 2 once
    # in a partition of its own (a tie in writer weight), and every
    # partition is given layer 0 (a tie in layer).
    path_set = hand_built([[0, 2], [1, 2], [2, 3], [2, 4]], 5)
    dag = build_dependency_dag(path_set)
    partitions = build_partitions(path_set, dag, 1)
    assert [p.path_ids for p in partitions] == [[0], [1], [2], [3]]
    replicas, table = assert_layout_matches_oracle(
        path_set, 1, np.zeros(4, dtype=np.int64)
    )
    # Equal weights and layers: the lowest partition id wins.
    assert replicas.owner_partition(2) == table.owner_partition[2] == 0


def test_an_invalid_owner_override_raises_and_changes_nothing():
    path_set = hand_built([[0, 1, 2], [2, 3], [3, 0]], 5)
    dag = build_dependency_dag(path_set)
    storage = PathStorage(path_set, build_partitions(path_set, dag, 1))
    replicas = ReplicaTable(path_set, storage)
    before = replicas.owner_partitions()
    bogus = storage.num_partitions
    for overrides in ({0: bogus}, {4: 0}, {-1: 0}, {0: -1}, {99: 0}):
        with pytest.raises(StorageError):
            replicas.set_owner_overrides({1: before[1], **overrides})
        assert_same_array(replicas.owner_partitions(), before)
    with pytest.raises(StorageError):
        oracle.LoopReplicaTable(
            path_set, storage.partition_of_paths
        ).set_owner_overrides({0: bogus})
    valid = int(replicas.mirror_partitions(2)[-1])
    replicas.set_owner_overrides({2: valid})
    assert replicas.owner_partition(2) == valid


def test_a_repaired_path_set_gets_its_own_layout():
    graph = datasets.load("dblp", scale=0.15)
    session = StreamingSession(graph, "sssp", machine_spec=SCALED_MACHINE)
    outcomes = [
        session.apply(batch)
        for batch in mutation_trace(
            graph, n_batches=2, seed=17, batch_size=5, mix="mixed"
        )
    ]
    layouts = [o.repair.path_set.layout for o in outcomes]
    assert layouts[0] is not layouts[1]
    for outcome in outcomes:
        path_set = outcome.repair.path_set
        fresh = PathSet(graph=path_set.graph, paths=list(path_set.paths))
        for name in ("vertices", "edge_ids", "lengths", "starts"):
            assert_same_array(
                getattr(path_set.layout, name), getattr(fresh.layout, name)
            )
        assert path_set.layout.edge_ids.size == path_set.graph.num_edges
        assert_layout_matches_oracle(path_set, 64)
