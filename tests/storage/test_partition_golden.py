"""Golden fingerprints of everything the streaming partitioner commits.

A store's ``GRAPH.json`` holds the checksum of every page and no
timestamp, so its sha256 pins the whole directory: the shard pages, the
node / edge maps and the reported edge cut and cluster count. The
fingerprints in ``partition_fingerprints.json`` were captured on the
commit *before* the cluster, affinity, route and build passes were
rewritten in array form (PR 22), so a mismatch here means the rewrite —
or a later change — moved a vertex to another part or a byte on disk,
not just a clock.
"""

import functools
import itertools
import os
from pathlib import Path

import pytest

from repro import datasets
from repro.storage import (
    GRAPH_MANIFEST_NAME,
    PARTITION_POLICIES,
    ResidentTracker,
    ShardedGraph,
    graph_chunk_source,
    partition_graph,
    synthetic_chunk_source,
)
from repro.storage.pages import sha256_file

from tests.pinned import load_pinned

GOLDEN_PATH = Path(__file__).with_name("partition_fingerprints.json")

STREAMS = ("synthetic", "cnr", "repartition")
CASES = list(
    itertools.product(
        STREAMS, (1, 2, 7, 32), (7, 4_096, 65_536), PARTITION_POLICIES
    )
)


def _key(stream, parts, chunk_edges, policy):
    return f"{stream}/p{parts}/c{chunk_edges}/{policy}"


@functools.lru_cache(maxsize=None)
def _cnr():
    # Large enough (|V|=1200, |E|=8631) that the two bigger chunk sizes
    # split the stream differently.
    return datasets.load("cnr", scale=2.0)


@pytest.fixture(scope="module")
def first_generation(tmp_path_factory):
    """The store the ``repartition`` cells re-shard."""
    out = str(tmp_path_factory.mktemp("generation") / "first")
    partition_graph(
        graph_chunk_source(_cnr(), chunk_edges=1_000), 5, out, seed=3
    )
    return out


def _source(stream, chunk_edges, first_generation):
    if stream == "synthetic":
        return synthetic_chunk_source(
            1_500, 12_000, seed=5, chunk_edges=chunk_edges
        )
    if stream == "cnr":
        return graph_chunk_source(_cnr(), chunk_edges=chunk_edges)
    return ShardedGraph(first_generation).edge_chunk_source(
        chunk_edges=chunk_edges
    )


def fingerprint(case, first_generation, out_dir):
    stream, parts, chunk_edges, policy = case
    report = partition_graph(
        _source(stream, chunk_edges, first_generation),
        parts,
        out_dir,
        policy=policy,
        seed=11,
        tracker=ResidentTracker(),
    )
    return {
        "manifest": sha256_file(os.path.join(out_dir, GRAPH_MANIFEST_NAME))[0],
        "node_map": sha256_file(os.path.join(out_dir, "node_map.page"))[0],
        "clusters": report.clusters,
        "edge_cut": report.edge_cut,
        "peak_resident_bytes": report.peak_resident_bytes,
    }


@pytest.fixture(scope="module")
def golden(first_generation, tmp_path_factory):
    return load_pinned(
        GOLDEN_PATH,
        lambda: {
            _key(*case): fingerprint(
                case,
                first_generation,
                str(tmp_path_factory.mktemp("regen") / "s"),
            )
            for case in CASES
        },
    )


@pytest.mark.parametrize("case", CASES, ids=lambda case: _key(*case))
def test_partition_fingerprint_pinned(
    golden, case, first_generation, tmp_path
):
    got = fingerprint(case, first_generation, str(tmp_path / "s"))
    assert got == golden[_key(*case)]


def test_golden_file_covers_all_cases(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)
