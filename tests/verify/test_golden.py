"""Golden-fixture regression tests: pinned state digests.

Every engine is deterministic, so the sha256 of the converged state
vector on a fixed workload is a stable fingerprint. These digests pin
the current behavior of all 8 algorithms x 4 engines on both canonical
graphs: any change to convergence order, tolerance handling, or replica
synchronization that alters the numbers shows up as a digest mismatch.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.algorithms import make_program
from repro.bench.runner import make_engine
from repro.gpu.config import SCALED_MACHINE
from repro.verify.fixtures import CANONICAL_GRAPHS
from repro.verify.oracle import ALL_ALGORITHMS, DEFAULT_ENGINES

from tests.pinned import load_pinned

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


def _digest(graph_name, algo, engine_name):
    graph = CANONICAL_GRAPHS[graph_name]()
    engine = make_engine(engine_name, SCALED_MACHINE)
    if engine.config is not None:
        engine.config = replace(engine.config, verify_invariants=True)
    program = make_program(algo, graph)
    result = engine.run(graph, program, graph_name=graph_name)
    assert result.converged
    return hashlib.sha256(result.states.tobytes()).hexdigest()


def _key(graph_name, algo, engine_name):
    return f"{graph_name}/{algo}/{engine_name}"


CASES = [
    (g, a, e)
    for g in sorted(CANONICAL_GRAPHS)
    for a in ALL_ALGORITHMS
    for e in DEFAULT_ENGINES
]


@pytest.fixture(scope="module")
def golden():
    return load_pinned(
        GOLDEN_PATH, lambda: {_key(*case): _digest(*case) for case in CASES}
    )


@pytest.mark.parametrize("graph_name,algo,engine_name", CASES)
def test_state_digest_pinned(golden, graph_name, algo, engine_name):
    key = _key(graph_name, algo, engine_name)
    assert _digest(graph_name, algo, engine_name) == golden[key], key


def test_golden_file_covers_all_cases(golden):
    assert set(golden) == {_key(g, a, e) for (g, a, e) in CASES}
