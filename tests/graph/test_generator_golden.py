"""Golden fingerprints of the seeded generators.

Every dataset stand-in, and so every digest downstream of it, rests on
the exact bytes the generators emit: the CSR arrays of a graph and the
mutations of a trace. The fingerprints in ``generator_fingerprints.json``
were captured on the commit *before* the Zipf draws went through a cached
CDF and ``bfs_levels`` became a frontier expansion, so a mismatch here
means a change moved a generated graph, not just a clock.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.graph import datasets
from repro.graph.generators import (
    MUTATION_MIXES,
    mutation_trace,
    power_law_directed,
    rmat,
    scc_profile_graph,
)

from tests.pinned import load_pinned

GOLDEN_PATH = Path(__file__).with_name("generator_fingerprints.json")

#: The social and web shapes at explicit sizes, with the twitter and it04
#: recipes' knobs (social as the CI front-end guard generates it).
PROFILES = {
    "social": dict(
        avg_degree=20.0, giant_scc_fraction=0.80, avg_distance=4.46, seed=106
    ),
    "web": dict(
        avg_degree=16.0, giant_scc_fraction=0.72, avg_distance=15.04, seed=105
    ),
}


def _sha(graph):
    digest = hashlib.sha256()
    for array in (graph.indptr, graph.indices, graph.weights):
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _trace_sha(mix):
    trace = mutation_trace(
        datasets.load("dblp", scale=0.5), 6, seed=7, batch_size=16, mix=mix
    )
    return hashlib.sha256(repr(trace).encode()).hexdigest()


CASES = {
    **{
        f"dataset/{name}/x{scale}": (
            lambda name=name, scale=scale: _sha(datasets.load(name, scale=scale))
        )
        for scale in (0.5, 4)
        for name in datasets.DATASET_NAMES
    },
    **{
        f"scc_profile/{shape}/n{n}": (
            lambda shape=shape, n=n: _sha(scc_profile_graph(n, **PROFILES[shape]))
        )
        for shape in PROFILES
        for n in (1000, 4000)
    },
    "power_law_directed/n2000": lambda: _sha(
        power_law_directed(2000, avg_out_degree=8.0, seed=3)
    ),
    "rmat/s10": lambda: _sha(rmat(10, edge_factor=8, seed=5)),
    **{
        f"mutation_trace/{mix}": (lambda mix=mix: _trace_sha(mix))
        for mix in MUTATION_MIXES
    },
}

#: Rows whose generation takes more than a second each.
SLOW = {key for key in CASES if key.endswith("/x4") or key.endswith("/n4000")}


@pytest.fixture(scope="module")
def golden():
    return load_pinned(GOLDEN_PATH, lambda: {key: CASES[key]() for key in CASES})


@pytest.mark.parametrize(
    "key",
    [
        pytest.param(key, marks=pytest.mark.slow) if key in SLOW else key
        for key in CASES
    ],
)
def test_generator_fingerprint_pinned(golden, key):
    assert CASES[key]() == golden[key]


def test_golden_file_covers_all_cases(golden):
    assert sorted(golden) == sorted(CASES)
