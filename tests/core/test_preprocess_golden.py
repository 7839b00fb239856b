"""Golden fingerprints of everything preprocessing produces.

Preprocessing is deterministic, and every engine digest downstream rests
on its exact output: path order, hot ids, the dependency CSR (rebuilt by
the tests-side oracle from the stored incidence — preprocessing no longer
builds it), SCC ids (a property of Tarjan's visiting order, not just of
the graph), layers and the dispatch groups lifted from them; and the
Fig. 4 layout built over them: partitions, ``PTable`` / ``E_Idx`` / ``E_val``, mirror
partitions and writer weights, default and layer-aware owners, and the
proxy set. The path, dependency, sketch and dispatch fingerprints in
``preprocess_fingerprints.json`` were captured on the commit *before*
preprocessing was rewritten as array passes, and the layout rows on the
commit before the layout was, so a digest mismatch here means a rewrite —
or a later change — moved an output, not just a clock.
"""

import functools
import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.common import resolve_partition_target
from repro.core.dependency import build_dependency_dag
from repro.core.dispatch import Dispatcher, lift_to_partitions
from repro.core.partitioning import decompose_into_paths
from repro.core.replicas import ReplicaTable
from repro.core.storage import PathStorage, build_partitions
from repro.core.tables import ExecutionTables
from repro.gpu.config import SCALED_MACHINE
from repro.gpu.machine import Machine
from repro.graph import datasets
from tests.core.dependency_oracle import dependency_product
from tests.pinned import load_pinned

GOLDEN_PATH = Path(__file__).with_name("preprocess_fingerprints.json")

#: Half-size stand-ins keep the 96-configuration cross product to a few
#: seconds; they still have hubs, a giant SCC and multi-layer sketches.
SCALE = 0.5

CASES = [
    (name, n_workers, greedy, scc_aware, merge)
    for name in datasets.DATASET_NAMES
    for n_workers in (1, 4)
    for greedy, scc_aware, merge in itertools.product((True, False), repeat=3)
]


def _key(name, n_workers, greedy, scc_aware, merge):
    flags = "".join(
        letter if on else "-"
        for letter, on in (("g", greedy), ("s", scc_aware), ("m", merge))
    )
    return f"{name}/w{n_workers}/{flags}"


def _sha(*parts):
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part, dtype=np.int64).tobytes()
        elif not isinstance(part, bytes):
            part = repr(part).encode()
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _graph(name):
    # Generation costs several times one preprocess; 16 cases share it.
    return datasets.load(name, scale=SCALE)


def fingerprint(name, n_workers, greedy, scc_aware, merge):
    """One digest per preprocessing product, from public API only."""
    graph = _graph(name)
    path_set = decompose_into_paths(
        graph,
        n_workers=n_workers,
        degree_greedy=greedy,
        scc_aware=scc_aware,
        merge_short_paths=merge,
    )
    dag = build_dependency_dag(path_set)
    partitions = build_partitions(
        path_set, dag, resolve_partition_target(graph, None)
    )
    storage = PathStorage(path_set, partitions)
    dispatcher = Dispatcher(storage, dag, Machine(SCALED_MACHINE))
    dependency = dependency_product(dag.writes, dag.reads, dag.num_paths)
    replicas = ReplicaTable(
        path_set,
        storage,
        proxy_capacity=SCALED_MACHINE.gpu.shared_memory_per_smx_bytes // 16,
    )
    replicated = replicas.replicated_vertices()
    default_owners = replicas.owner_partitions()
    # Pins the layer-aware owners, as every run's first round does.
    ExecutionTables.build(
        path_set, dag, storage, replicas, lift_to_partitions(storage, dag)
    )
    return {
        "partitions": _sha(
            [
                (
                    p.partition_id,
                    p.path_ids,
                    p.layer,
                    p.scc_vertices,
                    p.num_edges,
                    p.num_vertex_slots,
                )
                for p in partitions
            ]
        ),
        "storage": _sha(
            storage.ptable,
            storage.e_idx,
            storage.e_val.tobytes(),
            storage.slot_of_path,
            storage.partition_of_paths,
        ),
        "replicas": _sha(
            [
                (
                    v,
                    replicas.mirror_partitions(v),
                    sorted(replicas.writer_partitions(v).items()),
                )
                for v in replicated
            ]
        ),
        "owners": _sha(default_owners, replicas.owner_partitions()),
        "proxied": _sha(sorted(replicas.proxied_vertices)),
        "paths": _sha(
            [(p.path_id, p.vertices, p.edge_ids) for p in path_set],
            sorted(path_set.hot_path_ids),
        ),
        "dependency": _sha(dependency.indptr, dependency.indices),
        "sketch": _sha(
            dag.scc_of_path,
            dag.members,
            dag.layer_of_scc,
            dag.dag.indptr,
            dag.dag.indices,
        ),
        "dispatch": _sha(
            [(g.group_id, g.partition_ids, g.layer) for g in dispatcher.groups],
            [
                sorted(int(s) for s in dispatcher.partition_successors(pid))
                for pid in range(storage.num_partitions)
            ],
            sorted(dispatcher.home_gpu.items()),
        ),
    }


@pytest.fixture(scope="module")
def golden():
    return load_pinned(
        GOLDEN_PATH, lambda: {_key(*case): fingerprint(*case) for case in CASES}
    )


@pytest.mark.parametrize("case", CASES, ids=lambda case: _key(*case))
def test_preprocessing_fingerprint_pinned(golden, case):
    assert fingerprint(*case) == golden[_key(*case)]


def test_golden_file_covers_all_cases(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)
