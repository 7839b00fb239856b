"""Structural invariants of the preprocessing artifacts.

Every checker *recomputes* the property it certifies from first
principles (the raw graph and path layout) instead of trusting the cached
fields of the artifact under test — a corrupted artifact must not be
able to vouch for itself.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.dependency import DependencyDAG
from repro.core.paths import PathSet
from repro.core.replicas import ReplicaTable
from repro.core.storage import PathStorage
from repro.errors import PartitioningError, StorageError
from repro.graph.builder import first_occurrences
from repro.graph.digraph import DiGraphCSR
from repro.model.gas import VertexProgram
from repro.model.validate import check_fixed_point
from repro.verify.report import CheckResult, VerificationReport


# ----------------------------------------------------------------------
# path decomposition (Algorithm 1)
# ----------------------------------------------------------------------
def check_path_set(path_set: PathSet) -> List[CheckResult]:
    """Algorithm-1 invariants: real connected paths, edge-disjoint,
    covering every edge, each at most ``d_max`` edges deep.

    One pass over the flat layout: entry ``k`` of the concatenated edge
    ids, on path ``p``, must run from vertex slot ``k + p`` to the next.
    The first failure in layout order is the one reported."""
    results: List[CheckResult] = []

    graph = path_set.graph
    layout = path_set.layout
    edges, vertices = layout.edge_ids, layout.vertices
    path_of_edge = np.repeat(
        np.arange(path_set.num_paths), layout.lengths - 1
    )
    tail_slot = np.arange(edges.size) + path_of_edge
    in_graph = (edges >= 0) & (edges < graph.num_edges)
    traced = in_graph.copy()
    inside = np.flatnonzero(in_graph)
    cited, slots = edges[inside], tail_slot[inside]
    traced[inside] = (graph.edge_sources()[cited] == vertices[slots]) & (
        graph.indices[cited] == vertices[slots + 1]
    )
    good = np.flatnonzero(traced)
    first_use = good[first_occurrences(edges[good])]
    duplicate = traced.copy()
    duplicate[first_use] = False
    connectivity_bad = int(edges.size - good.size)
    duplicate_edges = int(duplicate.sum())
    missing = graph.num_edges - first_use.size

    worst = ""
    failures = np.flatnonzero(~traced | duplicate)
    if failures.size:
        k = int(failures[0])
        path_id, edge_id, slot = (
            int(path_of_edge[k]), int(edges[k]), int(tail_slot[k])
        )
        if not in_graph[k]:
            worst = f"path {path_id} cites edge id {edge_id} outside the graph"
        elif not traced[k]:
            src, dst = graph.edge_endpoints(edge_id)
            worst = (
                f"path {path_id} edge {edge_id} is ({src}->{dst}), path "
                f"says ({vertices[slot]}->{vertices[slot + 1]})"
            )
        else:
            worst = f"edge {edge_id} appears in more than one path"
    results.append(
        CheckResult(
            name="paths.connectivity",
            passed=connectivity_bad == 0,
            detail=worst if connectivity_bad else (
                f"{path_set.num_paths} paths trace real edges"
            ),
        )
    )
    results.append(
        CheckResult(
            name="paths.edge-disjoint",
            passed=duplicate_edges == 0,
            detail=(
                f"{duplicate_edges} duplicated edge(s)"
                if duplicate_edges
                else "every edge on at most one path"
            ),
        )
    )
    results.append(
        CheckResult(
            name="paths.coverage",
            passed=missing == 0,
            detail=(
                f"{missing} edge(s) on no path"
                if missing
                else f"all {graph.num_edges} edges covered"
            ),
        )
    )

    if path_set.d_max is not None:
        edge_counts = layout.lengths - 1
        over = np.flatnonzero(edge_counts > path_set.d_max)
        results.append(
            CheckResult(
                name="paths.d-max",
                passed=not over.size,
                detail=(
                    f"path {over[0]} has {edge_counts[over[0]]} edges "
                    f"> d_max={path_set.d_max} "
                    f"({over.size} path(s) over the bound)"
                    if over.size
                    else f"every path has <= {path_set.d_max} edges"
                ),
            )
        )
    return results


def _paths_by_vertex(
    path_set: PathSet, writes: bool
) -> Dict[int, List[int]]:
    """Vertex -> the paths it is written on (has an in-edge there: a
    non-head position) or, with ``writes=False``, read on (has an
    out-edge: a non-tail position); each path listed once, ascending."""
    roles: Dict[int, List[int]] = {}
    for path_id, vertices in enumerate(path_set.sequences):
        for v in set(vertices[1:] if writes else vertices[:-1]):
            roles.setdefault(v, []).append(path_id)
    return roles


# ----------------------------------------------------------------------
# dependency DAG (Section 3.1)
# ----------------------------------------------------------------------
def check_dependency_dag(
    path_set: PathSet, dag: DependencyDAG
) -> List[CheckResult]:
    """The DAG sketch is consistent with the paths, acyclic, and its
    layers are monotone along every edge."""
    results: List[CheckResult] = []

    # The dependency edges are stored as the incidence they are made of
    # (p_i -> p_j iff some vertex is written on p_i and read on p_j): the
    # stored (vertex, path) lists must equal the roles the paths imply.
    writers = _paths_by_vertex(path_set, writes=True)
    readers = _paths_by_vertex(path_set, writes=False)
    wrong = 0
    for roles, stored in ((writers, dag.writes), (readers, dag.reads)):
        expected = sorted((v, p) for v, paths in roles.items() for p in paths)
        got = list(zip(*stored.tolist()))
        if got != expected:
            wrong += len(set(got) ^ set(expected)) or 1
    results.append(
        CheckResult(
            name="dag.dependency-edges",
            passed=wrong == 0,
            detail=(
                f"{wrong} write/read incidence entries differ from the paths"
                if wrong
                else "write and read incidence match the paths"
            ),
        )
    )

    # SCC contraction, walked per vertex: each cross-SCC (writer SCC,
    # reader SCC) pair at a vertex is a DAG edge; each DAG edge has one.
    dag_edges: Set[Tuple[int, int]] = set()
    for a in range(dag.dag.num_vertices):
        for b in dag.dag.successors(a):
            dag_edges.add((a, int(b)))
    scc = dag.scc_of_path.tolist()
    witnessed: Set[Tuple[int, int]] = set()
    for v, writing in writers.items():
        targets = {scc[q] for q in readers.get(v, ())}
        for a in {scc[p] for p in writing}:
            witnessed.update((a, b) for b in targets if b != a)
    missing = len(witnessed - dag_edges)
    unwitnessed = len(dag_edges - witnessed)
    results.append(
        CheckResult(
            name="dag.contraction",
            passed=not missing and not unwitnessed,
            detail=(
                f"{missing} cross-SCC dependency pair(s) missing from the "
                f"DAG sketch, {unwitnessed} sketch edge(s) without one"
                if missing or unwitnessed
                else "SCC contraction covers every cross-SCC dependency"
            ),
        )
    )

    # Acyclicity + layer monotonicity: every DAG edge must go to a
    # strictly higher layer; a cycle makes that impossible, so one check
    # certifies both (and catches tampered layer arrays directly).
    violations = [
        (a, b)
        for a, b in sorted(dag_edges)
        if a == b or dag.layer_of_scc[a] >= dag.layer_of_scc[b]
    ]
    results.append(
        CheckResult(
            name="dag.layer-monotone",
            passed=not violations,
            detail=(
                f"edge {violations[0][0]}->{violations[0][1]} has layers "
                f"{int(dag.layer_of_scc[violations[0][0]])}>="
                f"{int(dag.layer_of_scc[violations[0][1]])} "
                f"({len(violations)} violation(s))"
                if violations
                else (
                    f"{dag.num_scc_vertices} SCC-vertices in "
                    f"{dag.num_layers()} strictly increasing layers"
                )
            ),
        )
    )
    return results


# ----------------------------------------------------------------------
# replica table (Section 3.2.2)
# ----------------------------------------------------------------------
def check_replica_table(
    path_set: PathSet,
    storage: PathStorage,
    replicas: ReplicaTable,
) -> List[CheckResult]:
    """Replica coherence: mirrors match the path layout, every mirror
    traces to exactly one master, and the proxy set matches the
    threshold/capacity selection rule."""
    results: List[CheckResult] = []

    # Recompute mirror partitions from the path layout.
    expected_mirrors: Dict[int, Set[int]] = {}
    for path_id, vertices in enumerate(path_set.sequences):
        partition = storage.partition_of_path(path_id)
        for v in vertices:
            expected_mirrors.setdefault(v, set()).add(partition)
    mismatches = 0
    worst = ""
    for v, parts in expected_mirrors.items():
        stored = set(replicas.mirror_partitions(v))
        if stored != parts:
            mismatches += 1
            worst = worst or (
                f"vertex {v} mirrors {sorted(stored)} != path layout "
                f"{sorted(parts)}"
            )
    for v in replicas.replicated_vertices():
        if v not in expected_mirrors:
            mismatches += 1
            worst = worst or f"vertex {v} has mirrors but lies on no path"
    results.append(
        CheckResult(
            name="replicas.mirrors",
            passed=mismatches == 0,
            detail=worst if mismatches else (
                f"{len(expected_mirrors)} replicated vertices match "
                f"the path layout"
            ),
        )
    )

    # Master coherence: every replicated vertex has exactly one owner
    # partition, and it is one of the partitions mirroring the vertex.
    orphans = 0
    worst = ""
    for v in expected_mirrors:
        owner = replicas.owner_partition(v)
        if owner is None or owner not in expected_mirrors[v]:
            orphans += 1
            worst = worst or (
                f"vertex {v} owner {owner} is not among its mirror "
                f"partitions {sorted(expected_mirrors[v])}"
            )
    results.append(
        CheckResult(
            name="replicas.master",
            passed=orphans == 0,
            detail=worst if orphans else (
                "every mirror traces to one master partition"
            ),
        )
    )

    # Proxy selection: hottest in-degrees at/above the threshold, up to
    # capacity — recomputed with the table's own stored parameters.
    graph = path_set.graph
    in_degrees = graph.in_degree()
    hot = np.flatnonzero(
        in_degrees >= replicas.proxy_in_degree_threshold
    )
    hot = hot[np.argsort(-in_degrees[hot], kind="stable")]
    expected_proxies = frozenset(
        int(v) for v in hot[: replicas.proxy_capacity]
    )
    actual = replicas.proxied_vertices
    results.append(
        CheckResult(
            name="replicas.proxies",
            passed=actual == expected_proxies,
            detail=(
                f"proxy set differs from the threshold/capacity rule by "
                f"{len(actual ^ expected_proxies)} vertices"
                if actual != expected_proxies
                else (
                    f"{len(actual)} proxies match threshold="
                    f"{replicas.proxy_in_degree_threshold}, capacity="
                    f"{replicas.proxy_capacity}"
                )
            ),
        )
    )
    return results


# ----------------------------------------------------------------------
# storage layout (Fig. 4)
# ----------------------------------------------------------------------
def check_storage(storage: PathStorage) -> List[CheckResult]:
    """The Fig. 4 arrays agree with the path set they were built from."""
    try:
        storage.validate()
    except (StorageError, PartitioningError) as exc:
        return [
            CheckResult(name="storage.layout", passed=False, detail=str(exc))
        ]
    return [
        CheckResult(
            name="storage.layout",
            passed=True,
            detail=(
                f"{storage.num_partitions} partitions, "
                f"{storage.e_idx.size} vertex slots consistent"
            ),
        )
    ]


def verify_preprocessed(pre) -> VerificationReport:
    """All structural checks over one ``Preprocessed`` bundle."""
    report = VerificationReport()
    report.extend(check_path_set(pre.path_set))
    report.extend(check_dependency_dag(pre.path_set, pre.dag))
    report.extend(
        check_replica_table(pre.path_set, pre.storage, pre.replicas)
    )
    report.extend(check_storage(pre.storage))
    return report


# ----------------------------------------------------------------------
# post-run fixed point
# ----------------------------------------------------------------------
def check_fixed_point_reached(
    program: VertexProgram,
    graph: DiGraphCSR,
    states: np.ndarray,
) -> CheckResult:
    """The converged states satisfy every vertex's update equation."""
    result = check_fixed_point(program, graph, states)
    return CheckResult(
        name=f"fixed-point.{program.name}",
        passed=result.satisfied,
        detail=str(result),
    )
