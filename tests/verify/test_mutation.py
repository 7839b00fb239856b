"""Mutation smoke tests: each checker must reject a corrupted artifact.

A checker that never fires is worse than none — these tests corrupt
each artifact in the specific way its checker guards against and assert
the violation is caught (and that the artifact passed *before* the
corruption, so the failure is attributable to it).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.engine import DiGraphEngine
from repro.core.paths import PathSet
from repro.errors import VerificationError
from repro.gpu.stats import MachineStats
from repro.graph.builder import GraphBuilder
from repro.graph.generators import directed_path
from repro.verify.conservation import (
    check_message_conservation,
    check_write_conservation,
)
from repro.verify.fixtures import two_scc_chain
from repro.verify.report import VerificationReport
from repro.verify.structural import (
    check_dependency_dag,
    check_path_set,
    check_replica_table,
    verify_preprocessed,
)


def _failed_names(results):
    return {r.name for r in results if not r.passed}


# ----------------------------------------------------------------------
# path-set corruptions
# ----------------------------------------------------------------------
def test_duplicate_edge_rejected():
    graph = directed_path(4)  # edges 0->1, 1->2, 2->3 with ids 0, 1, 2
    path_set = PathSet.from_sequences(
        graph,
        # Edge 0 appears again on the second path: not a decomposition.
        [(0, 1), (0, 1, 2, 3)],
        [(0,), (0, 1, 2)],
    )
    results = check_path_set(path_set)
    assert "paths.edge-disjoint" in _failed_names(results)


def test_over_depth_path_rejected():
    graph = directed_path(4)
    paths = ([(0, 1, 2, 3)], [(0, 1, 2)])
    results = check_path_set(PathSet.from_sequences(graph, *paths, d_max=2))
    assert "paths.d-max" in _failed_names(results)
    # The same decomposition under a generous bound is clean.
    results = check_path_set(PathSet.from_sequences(graph, *paths, d_max=3))
    assert not _failed_names(results)


def test_wrong_endpoints_rejected():
    graph = two_scc_chain()
    # Edge id 0 is 0->1, but the path claims it runs elsewhere.
    path_set = PathSet.from_sequences(graph, [(5, 6)], [(0,)])
    results = check_path_set(path_set)
    assert "paths.connectivity" in _failed_names(results)


def test_edge_outside_the_graph_rejected():
    graph = directed_path(4)
    # Edge ids 0..2 exist; 3 and -1 name no edge, and must not be looked
    # up (or wrap around) while checking the path.
    for bogus in (3, -1):
        path_set = PathSet.from_sequences(
            graph, [(0, 1, 2, 3), (2, 3)], [(0, 1, 2), (bogus,)]
        )
        results = check_path_set(path_set)
        assert _failed_names(results) == {"paths.connectivity"}
        assert "outside the graph" in results[0].detail


def test_missing_edge_rejected():
    graph = directed_path(4)
    path_set = PathSet.from_sequences(graph, [(0, 1, 2)], [(0, 1)])
    results = check_path_set(path_set)
    assert "paths.coverage" in _failed_names(results)


# ----------------------------------------------------------------------
# replica-table corruptions
# ----------------------------------------------------------------------
@pytest.fixture
def preprocessed():
    pre = DiGraphEngine().preprocess(two_scc_chain())
    # Sanity: clean before any corruption.
    verify_preprocessed(pre).raise_if_failed()
    return pre


def test_orphan_mirror_rejected(preprocessed):
    pre = preprocessed
    # Vertex 8 is isolated: it lies on no path, so a mirror entry for
    # it can trace to no master slot in any partition.
    pre.replicas._mirror_slices[8] = (0,)
    results = check_replica_table(pre.path_set, pre.storage, pre.replicas)
    assert "replicas.mirrors" in _failed_names(results)


def test_phantom_mirror_partition_rejected(preprocessed):
    pre = preprocessed
    v = int(pre.replicas.replicated_vertices()[0])
    bogus = pre.storage.num_partitions + 5
    pre.replicas._mirror_slices[v] = (
        pre.replicas._mirror_slices[v] + (bogus,)
    )
    results = check_replica_table(pre.path_set, pre.storage, pre.replicas)
    assert "replicas.mirrors" in _failed_names(results)


def test_masterless_owner_rejected(preprocessed):
    pre = preprocessed
    v = int(pre.replicas.replicated_vertices()[0])
    pre.replicas._owner_partition[v] = pre.storage.num_partitions + 5
    results = check_replica_table(pre.path_set, pre.storage, pre.replicas)
    assert "replicas.master" in _failed_names(results)


def test_tampered_proxy_set_rejected(preprocessed):
    pre = preprocessed
    # The selection rule is a pure function of in-degrees and the stored
    # parameters; any deviation must be flagged.
    pre.replicas._proxied = frozenset({0})
    results = check_replica_table(pre.path_set, pre.storage, pre.replicas)
    assert "replicas.proxies" in _failed_names(results)


# ----------------------------------------------------------------------
# dependency-DAG corruptions
# ----------------------------------------------------------------------
def test_flattened_layers_rejected():
    # A long chain decomposes into several chained paths, so the DAG
    # sketch has real edges whose layers must strictly increase.
    pre = DiGraphEngine().preprocess(directed_path(40))
    assert pre.dag.dag.num_edges > 0
    clean = check_dependency_dag(pre.path_set, pre.dag)
    assert not _failed_names(clean)
    # Flatten every layer: each DAG edge becomes a monotonicity
    # violation (equivalent to introducing a back edge).
    pre.dag.layer_of_scc[:] = 0
    results = check_dependency_dag(pre.path_set, pre.dag)
    assert "dag.layer-monotone" in _failed_names(results)


@pytest.fixture
def chain_dag():
    # A 40-vertex chain: five chained paths, five SCC-vertices in a line
    # 4 -> 3 -> 2 -> 1 -> 0, one per layer.
    pre = DiGraphEngine().preprocess(directed_path(40))
    assert not _failed_names(check_dependency_dag(pre.path_set, pre.dag))
    return pre.path_set, pre.dag


def _with_sketch(dag, edges):
    sketch = GraphBuilder(num_vertices=dag.num_scc_vertices).add_edges(edges)
    return dataclasses.replace(dag, dag=sketch.build())


@pytest.mark.parametrize("role", ["writes", "reads"])
def test_dropped_incidence_entry_rejected(chain_dag, role):
    path_set, dag = chain_dag
    stored = getattr(dag, role)
    corrupt = dataclasses.replace(dag, **{role: stored[:, 1:]})
    results = check_dependency_dag(path_set, corrupt)
    assert "dag.dependency-edges" in _failed_names(results)


def test_spurious_sketch_edge_rejected(chain_dag):
    path_set, dag = chain_dag
    edges = [(a, b) for a, b, _ in dag.dag.edges()]
    # 4 -> 2 skips a layer, so layers stay monotone: only the missing
    # witness (no vertex is written in SCC 4 and read in SCC 2) fails.
    assert (4, 2) not in edges
    spurious = _with_sketch(dag, edges + [(4, 2)])
    results = check_dependency_dag(path_set, spurious)
    assert _failed_names(results) == {"dag.contraction"}


def test_missing_sketch_edge_rejected(chain_dag):
    path_set, dag = chain_dag
    edges = [(a, b) for a, b, _ in dag.dag.edges() if (a, b) != (2, 1)]
    results = check_dependency_dag(path_set, _with_sketch(dag, edges))
    assert _failed_names(results) == {"dag.contraction"}


def test_engine_flag_raises_on_corruption(monkeypatch):
    """The verify_invariants hook in preprocess() surfaces violations."""
    import repro.core.engine as engine_mod
    from repro.core.engine import DiGraphConfig

    real = engine_mod.decompose_into_paths

    def corrupt(graph, **kwargs):
        path_set = real(graph, **kwargs)
        path_set.d_max = 1  # claim a bound the decomposition violates
        return path_set

    monkeypatch.setattr(engine_mod, "decompose_into_paths", corrupt)
    engine = DiGraphEngine(config=DiGraphConfig(verify_invariants=True))
    with pytest.raises(VerificationError, match="paths.d-max"):
        engine.preprocess(two_scc_chain())


# ----------------------------------------------------------------------
# conservation corruptions
# ----------------------------------------------------------------------
def test_dropped_flush_rejected():
    stats = MachineStats()
    stats.note_pair_transfer(0, 1, 1024)
    sent = {(0, 1): 1024, (1, 0): 512}  # (1, 0) was never flushed
    assert not check_message_conservation(stats, sent).passed
    stats.note_pair_transfer(1, 0, 512)
    assert check_message_conservation(stats, sent).passed


def test_double_flush_rejected():
    stats = MachineStats()
    stats.note_pair_transfer(0, 1, 1024)
    stats.note_pair_transfer(0, 1, 1024)
    assert not check_message_conservation(stats, {(0, 1): 1024}).passed


def test_unaccounted_write_rejected():
    stats = MachineStats()
    stats.atomic_updates = 10
    stats.proxy_absorbed = 5
    stats.master_writes = 15
    assert check_write_conservation(stats).passed
    stats.master_writes = 16  # one write neither atomic nor absorbed
    assert not check_write_conservation(stats).passed


def test_report_raises_with_failure_names():
    stats = MachineStats()
    stats.master_writes = 1
    report = VerificationReport([check_write_conservation(stats)])
    with pytest.raises(VerificationError, match="conservation.writes"):
        report.raise_if_failed()
