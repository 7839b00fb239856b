"""Property-based tests for the segment primitives and batch kernels.

Five layers:

1. the segmented-array primitives (:mod:`repro.kernels.segment`) against
   naive per-segment Python loops on arbitrary CSR shapes — empty
   segments, single-vertex graphs, self-loops, duplicate edges;
2. every registered vectorized kernel against the protocol oracle
   (:class:`tests.kernels.protocol_oracle.ProtocolKernel`, which loops
   the program's own ``update_vertex``) on arbitrary small graphs and
   states;
3. the step-backed :class:`ScalarFallbackKernel` against the same
   oracle, bit for bit, on weighted multigraphs whose states hold
   ``inf``, ``±0.0`` and NaN — unregistered subclasses included;
4. every registered kernel built from a sequence of k same-class
   programs against the same kernel built from each program alone, row
   by row, on states salted with ``inf`` and ``-0.0``;
5. the registry's lookup rule: a subclass overriding a protocol method
   does not inherit its base's kernel.

Sums must be *bit-identical* — the segment reduction is specified as the
same IEEE-754 operations in the same order as the scalar fold, not as
"close enough".
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algorithms import (
    SSSP,
    Adsorption,
    BFSLevels,
    KCore,
    PageRank,
    PersonalizedPageRank,
    Reachability,
    WeaklyConnectedComponents,
    make_program,
)
from repro.baselines.bulk_sync import BulkSyncConfig, BulkSyncEngine
from repro.errors import ConfigurationError
from repro.gpu.config import SCALED_MACHINE
from repro.graph.builder import from_edges
from repro.graph.generators import random_directed
from repro.kernels import (
    ScalarFallbackKernel,
    batch_segments,
    has_vectorized_kernel,
    interleave_segments,
    kernel_class_for,
    resolve_kernel,
    segment_max,
    segment_min,
    segment_sum_ordered,
)
from repro.model.gas import VertexProgram
from tests.kernels.protocol_oracle import ProtocolKernel

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


@st.composite
def csr_shapes(draw):
    """An ``indptr`` array: arbitrary segment lengths incl. empty ones."""
    counts = draw(
        st.lists(st.integers(0, 12), min_size=1, max_size=20)
    )
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


@st.composite
def segmented_values(draw):
    """``(values, seg_offsets)`` with offsets tiling the value array."""
    indptr = draw(csr_shapes())
    total = int(indptr[-1])
    values = draw(
        st.lists(
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=total,
            max_size=total,
        )
    )
    return np.asarray(values, dtype=np.float64), indptr


@st.composite
def small_digraphs(draw):
    """Arbitrary digraphs: single-vertex, self-loops, duplicate edges."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=0,
            max_size=40,
        )
    )
    return from_edges(edges, num_vertices=n)


# ----------------------------------------------------------------------
# segment primitives vs naive loops
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batch_segments_matches_slicing(data):
    indptr = data.draw(csr_shapes())
    n = indptr.size - 1
    targets = np.asarray(
        data.draw(
            st.lists(st.integers(0, n - 1), min_size=0, max_size=2 * n)
        ),
        dtype=np.int64,
    )
    positions, seg_offsets = batch_segments(indptr, np.diff(indptr), targets)
    assert seg_offsets[0] == 0 and seg_offsets[-1] == positions.size
    for i, v in enumerate(targets):
        seg = positions[seg_offsets[i] : seg_offsets[i + 1]]
        expected = np.arange(indptr[v], indptr[v + 1], dtype=np.int64)
        assert np.array_equal(seg, expected)


@settings(max_examples=100, deadline=None)
@given(payload=segmented_values())
def test_segment_sum_bit_identical_to_sequential_fold(payload):
    values, seg_offsets = payload
    result = segment_sum_ordered(values, seg_offsets)
    for i in range(seg_offsets.size - 1):
        acc = 0.0
        for x in values[seg_offsets[i] : seg_offsets[i + 1]]:
            acc = acc + float(x)
        # Bit equality, not allclose: same operations in the same order.
        assert result[i] == acc or (np.isnan(result[i]) and np.isnan(acc))


def test_segment_sum_long_segment_matches_fold():
    """A >100-element segment — the regime where ``reduceat`` diverges
    from the sequential fold (NumPy's blocked inner loop)."""
    rng = np.random.default_rng(3)
    values = rng.uniform(-1.0, 1.0, size=1000)
    seg_offsets = np.array([0, 700, 700, 1000], dtype=np.int64)
    result = segment_sum_ordered(values, seg_offsets)
    for i in range(3):
        acc = 0.0
        for x in values[seg_offsets[i] : seg_offsets[i + 1]]:
            acc = acc + float(x)
        assert result[i] == acc


@settings(max_examples=60, deadline=None)
@given(payload=segmented_values())
def test_segment_min_max_match_loops(payload):
    values, seg_offsets = payload
    mins = segment_min(values, seg_offsets)
    maxs = segment_max(values, seg_offsets)
    for i in range(seg_offsets.size - 1):
        seg = values[seg_offsets[i] : seg_offsets[i + 1]]
        if seg.size == 0:
            assert mins[i] == np.inf and maxs[i] == -np.inf
        else:
            assert mins[i] == seg.min() and maxs[i] == seg.max()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_interleave_segments_matches_concatenation(data):
    a_vals, a_offsets = data.draw(segmented_values())
    nseg = a_offsets.size - 1
    b_counts = data.draw(
        st.lists(
            st.integers(0, 6), min_size=nseg, max_size=nseg
        )
    )
    b_offsets = np.zeros(nseg + 1, dtype=np.int64)
    np.cumsum(b_counts, out=b_offsets[1:])
    b_vals = np.arange(int(b_offsets[-1]), dtype=np.float64) + 0.5
    out, seg_offsets = interleave_segments(
        a_vals, a_offsets, b_vals, b_offsets
    )
    for i in range(nseg):
        expected = np.concatenate(
            [
                a_vals[a_offsets[i] : a_offsets[i + 1]],
                b_vals[b_offsets[i] : b_offsets[i + 1]],
            ]
        )
        assert np.array_equal(
            out[seg_offsets[i] : seg_offsets[i + 1]], expected
        )


# ----------------------------------------------------------------------
# vectorized kernels vs the protocol oracle
# ----------------------------------------------------------------------

KERNEL_ALGOS = (
    "pagerank",
    "ppr",
    "adsorption",
    "sssp",
    "bfs",
    "wcc",
    "reachability",
    "kcore",
)


@settings(max_examples=25, deadline=None)
@given(graph=small_digraphs(), algo=st.sampled_from(KERNEL_ALGOS))
def test_kernels_match_the_protocol_oracle(graph, algo):
    """batch_update/gather_degrees/batch_dependents agree with the
    per-vertex ``update_vertex`` loop on the whole vertex set."""
    program = make_program(algo, graph)
    vectorized = resolve_kernel(program, graph, allow_fallback=False)
    oracle = ProtocolKernel(program, graph)

    batch = np.arange(graph.num_vertices, dtype=np.int64)
    states = np.asarray(
        program.initial_states(graph), dtype=np.float64
    )
    old = states[batch]

    v_new, v_changed = vectorized.batch_update(batch, states, old)
    s_new, s_changed = oracle.batch_update(batch, states, old)
    assert np.array_equal(v_new, s_new)
    assert np.array_equal(v_changed, s_changed)

    assert np.array_equal(
        vectorized.gather_degrees(batch), oracle.gather_degrees(batch)
    )

    v_targets, v_offsets = vectorized.batch_dependents(batch)
    s_targets, s_offsets = oracle.batch_dependents(batch)
    assert np.array_equal(v_targets, s_targets)
    assert np.array_equal(v_offsets, s_offsets)


@settings(max_examples=25, deadline=None)
@given(graph=small_digraphs(), data=st.data())
def test_pagerank_kernel_on_perturbed_states(graph, data):
    """Mid-run states (not just initial ones) agree bit for bit."""
    program = make_program("pagerank", graph)
    program.initial_states(graph)  # primes the out-degree cache
    vectorized = resolve_kernel(program, graph, allow_fallback=False)
    oracle = ProtocolKernel(program, graph)
    n = graph.num_vertices
    states = np.asarray(
        data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.float64,
    )
    batch = np.arange(n, dtype=np.int64)
    v_new, v_changed = vectorized.batch_update(batch, states, states[batch])
    s_new, s_changed = oracle.batch_update(batch, states, states[batch])
    assert np.array_equal(v_new, s_new)
    assert np.array_equal(v_changed, s_changed)


# ----------------------------------------------------------------------
# one kernel, any rank: a program sequence vs its programs one at a time
# ----------------------------------------------------------------------

#: Lane ``i``'s program, with per-lane constants that differ by lane.
LANE_PROGRAMS = {
    "pagerank": lambda i, n: PageRank(
        damping=0.5 + 0.05 * i, tolerance=10.0 ** -(2 + i % 3)
    ),
    "ppr": lambda i, n: PersonalizedPageRank(
        seeds=[i % n, (5 * i + 2) % n],
        damping=0.9 - 0.05 * i,
        tolerance=10.0 ** -(3 + i % 3),
    ),
    "adsorption": lambda i, n: Adsorption(
        p_inj=0.1 + 0.1 * i, injection_seed=13 + i
    ),
    "sssp": lambda i, n: SSSP(source=(3 * i) % n),
    "bfs": lambda i, n: BFSLevels(source=(3 * i + 1) % n),
    "wcc": lambda i, n: WeaklyConnectedComponents(),
    "reachability": lambda i, n: Reachability(
        sources=[i % n, (7 * i + 3) % n]
    ),
    "kcore": lambda i, n: KCore(k=1 + i % 4),
}


def lane_graph():
    """Random edges over vertices 0..29; 30..33 have no in-edge (30 and
    31 feed the rest, 32 and 33 are isolated)."""
    rng = np.random.default_rng(41)
    edges = [
        (int(u), int(v))
        for u, v in zip(rng.integers(0, 30, 150), rng.integers(0, 30, 150))
    ]
    edges += [(30, 4), (30, 9), (31, 4)]
    return from_edges(edges, num_vertices=34)


def salted(rng, shape):
    """Finite draws with ``inf`` and ``-0.0`` scattered through them."""
    values = rng.uniform(0.0, 5.0, size=shape)
    values[rng.random(shape) < 0.2] = np.inf
    values[rng.random(shape) < 0.1] = -0.0
    return values


# inf - inf in a tolerance check is the point of the salt, not a defect.
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("lanes", [1, 3, 8])
@pytest.mark.parametrize("algo", KERNEL_ALGOS)
def test_program_sequence_rows_equal_the_one_program_kernel(algo, lanes):
    """Row i of the k-program kernel is, bit for bit, the one-program
    kernel on ``programs[i]`` — ``changed`` included."""
    graph = lane_graph()
    n = graph.num_vertices
    assert (graph.in_degree()[30:] == 0).all()
    programs = [LANE_PROGRAMS[algo](i, n) for i in range(lanes)]
    kernel = resolve_kernel(programs, graph)
    assert kernel.num_lanes == lanes
    initial = kernel.initial_states()
    assert initial.shape == kernel.initial_active().shape == (lanes, n)

    rng = np.random.default_rng(lanes * 101 + len(algo))
    states = salted(rng, (lanes, n))
    # An unreached lane: the program's own starting row.
    states[lanes - 1] = initial[lanes - 1]
    dst = rng.permutation(n)[: n - 5].astype(np.int64)
    assert np.isin([30, 31, 32, 33], dst).any()
    old = np.where(rng.random((lanes, dst.size)) < 0.5,
                   states[:, dst], salted(rng, (lanes, dst.size)))

    new, changed = kernel.batch_update(dst, states, old)
    assert new.shape == changed.shape == (lanes, dst.size)
    for i, program in enumerate(programs):
        solo = resolve_kernel(program, graph, allow_fallback=False)
        assert type(solo) is type(kernel) and solo.num_lanes is None
        assert np.array_equal(initial[i], solo.initial_states())
        row_new, row_changed = solo.batch_update(dst, states[i], old[i])
        assert new[i].tobytes() == row_new.tobytes()
        assert changed[i].tobytes() == row_changed.tobytes()


def test_program_sequences_are_same_class_and_non_empty():
    graph = lane_graph()
    with pytest.raises(ConfigurationError, match="at least one program"):
        resolve_kernel([], graph)
    with pytest.raises(ConfigurationError, match="same-class"):
        resolve_kernel([SSSP(source=0), BFSLevels(source=0)], graph)
    with pytest.raises(ConfigurationError, match="no batch kernel"):
        resolve_kernel([Averaging(), Averaging()], graph)


# ----------------------------------------------------------------------
# a subclass that overrides the protocol does not inherit a kernel
# ----------------------------------------------------------------------


class HopSSSP(SSSP):
    """Every hop costs 100 more than its weight."""

    def gather(self, src_state, weight, src, dst):
        return super().gather(src_state, weight, src, dst) + 100.0


class RenamedSSSP(SSSP):
    """Overrides nothing a kernel replaces."""

    name = "sssp-renamed"


class OneWaySSSP(SSSP):
    """Activates nobody: overrides only ``dependents``."""

    def dependents(self, graph, v):
        return ()


class Averaging(VertexProgram):
    """No registered kernel in its MRO."""

    name = "averaging"

    def initial_states(self, graph):
        return np.ones(graph.num_vertices, dtype=np.float64)

    @property
    def identity(self):
        return 0.0

    def gather(self, src_state, weight, src, dst):
        return src_state

    def accumulate(self, a, b):
        return a + b

    def apply(self, v, old_state, acc):
        return 0.5 * acc


@pytest.mark.parametrize("program_cls", [HopSSSP, OneWaySSSP])
def test_overriding_subclass_does_not_get_its_base_kernel(program_cls):
    graph = lane_graph()
    program = program_cls(source=0)
    assert kernel_class_for(program) is None
    assert not has_vectorized_kernel(program)
    assert resolve_kernel(program, graph, allow_fallback=False) is None
    assert type(resolve_kernel(program, graph)) is ScalarFallbackKernel
    with pytest.raises(ConfigurationError, match="no batch kernel"):
        resolve_kernel([program, program_cls(source=1)], graph)


def test_subclass_overriding_no_protocol_method_keeps_the_kernel():
    assert kernel_class_for(RenamedSSSP(source=0)) is kernel_class_for(
        SSSP(source=0)
    )


def test_hop_sssp_bulk_sync_rounds_agree():
    """Bulk-sync runs the subclass's own gather under either kernel
    choice, not plain SSSP's kernel."""
    graph = random_directed(50, 200, seed=1)
    results = [
        BulkSyncEngine(
            SCALED_MACHINE, BulkSyncConfig(use_vectorized_kernels=vectorized)
        ).run(graph, HopSSSP(source=0), graph_name="hop")
        for vectorized in (False, True)
    ]
    scalar, vectorized = results
    assert np.isfinite(scalar.states).any() and scalar.states.max() > 100.0
    assert np.array_equal(scalar.states, vectorized.states)
    assert scalar.round_records == vectorized.round_records


# ----------------------------------------------------------------------
# the step-backed fallback vs the protocol oracle
# ----------------------------------------------------------------------

#: State values the step kernels must treat exactly as the protocol does.
SPECIAL_STATES = (np.inf, 0.0, -0.0, np.nan, 1.0)

FALLBACK_PROGRAMS = KERNEL_ALGOS + ("hop-sssp", "one-way-sssp")


def fallback_program(name, graph):
    if name == "hop-sssp":
        return HopSSSP(source=0)
    if name == "one-way-sssp":
        return OneWaySSSP(source=0)
    return make_program(name, graph)


@st.composite
def weighted_multigraphs(draw):
    """Weighted digraphs: self-loops, parallel edges, isolated vertices;
    a zero weight can make an adsorption in-weight sum vanish."""
    n = draw(st.integers(min_value=1, max_value=12))
    vertex = st.integers(0, n - 1)
    weight = st.sampled_from((0.0, 0.5, 1.0, 2.5, 7.25))
    edges = draw(
        st.lists(st.tuples(vertex, vertex, weight), max_size=40)
    )
    return from_edges(edges, num_vertices=n)


def state_values(n):
    value = st.one_of(
        st.sampled_from(SPECIAL_STATES),
        st.floats(min_value=0.0, max_value=12.0),
    )
    return st.lists(value, min_size=n, max_size=n).map(
        lambda xs: np.asarray(xs, dtype=np.float64)
    )


def bits(values):
    return [struct.pack("d", x) for x in values.tolist()]


@st.composite
def fallback_cases(draw):
    """``(graph, states, old, batch)``: ``old`` as the engines pass it,
    or a stale value gather never reads, and a batch in any order."""
    graph = draw(weighted_multigraphs())
    n = graph.num_vertices
    states = draw(state_values(n))
    old = np.where(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        states,
        draw(state_values(n)),
    )
    batch = np.asarray(
        draw(st.permutations(range(n))), dtype=np.int64
    )[: draw(st.integers(0, n))]
    return graph, states, old, batch


#: Two NaNs of opposite sign meet in one sum: ``inf * 0.0`` over the
#: zero-weight edge 1 -> 0 (the default NaN, sign bit set) plus the
#: drawn ``nan`` over 2 -> 0.
OPPOSITE_NANS = (
    from_edges([(1, 0, 0.0), (2, 0, 0.5)], num_vertices=3),
    np.array([1.31433825, np.inf, np.nan]),
    np.array([1.0, 8.24351194, 10.68295208]),
    np.array([2, 1, 0], dtype=np.int64),
)

_quickened = set()


def quicken(name, fallback, oracle):
    """Run both sides' float arithmetic past CPython's quickening.

    CPython 3.11 specializes a float ``a + b`` after a few executions,
    and the specialized and the generic add keep different operands'
    NaN when both are NaN. Both sides add Python floats in the same
    order; run on a finite input first, they also add them in the same
    form, so their NaN payloads agree on every drawn input.
    """
    if name in _quickened:
        return
    graph = from_edges(
        [(u, v, 1.0) for u in range(4) for v in range(4) if u != v],
        num_vertices=4,
    )
    program = fallback_program(name, graph)
    program.initial_states(graph)
    batch = np.arange(4, dtype=np.int64)
    finite = np.arange(1.0, 5.0)
    for kernel in (type(fallback), type(oracle)):
        for _ in range(16):
            kernel(program, graph).batch_update(batch, finite, finite)
    _quickened.add(name)


@pytest.mark.parametrize("name", FALLBACK_PROGRAMS)
@settings(max_examples=15, deadline=None)
@example(case=OPPOSITE_NANS)
@given(case=fallback_cases())
def test_fallback_is_the_protocol_oracle_bit_for_bit(name, case):
    """The fallback loops the step kernel — the registered one, or the
    generic step for an unregistered subclass — and returns, bit for
    bit, what ``update_vertex`` returns, with the protocol's degrees and
    dependents. Both compute on Python floats, as the engines' steps
    do, so NaN payloads agree too."""
    graph, states, old, batch = case
    program = fallback_program(name, graph)
    program.initial_states(graph)
    fallback = ScalarFallbackKernel(program, graph)
    oracle = ProtocolKernel(program, graph)
    quicken(name, fallback, oracle)

    new, changed = fallback.batch_update(batch, states, old[batch])
    expected, expected_changed = oracle.batch_update(
        batch, states, old[batch]
    )
    assert bits(new) == bits(expected)
    assert changed.tolist() == expected_changed.tolist()
    assert np.array_equal(
        fallback.gather_degrees(batch), oracle.gather_degrees(batch)
    )
    for got, want in zip(
        fallback.batch_dependents(batch), oracle.batch_dependents(batch)
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_fallback_built_before_initial_states_binds_this_graph():
    """The serving solver builds its kernel, then asks it for initial
    states. A program last primed on another graph must still run this
    graph's step: the fallback binds it on first use."""
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5), (0, 2, 4.0)]
    graph = from_edges(edges, num_vertices=3)
    other = from_edges(
        [(u, v, 3.0 * w) for u, v, w in edges[:3]], num_vertices=3
    )
    program = Adsorption()
    program.initial_states(other)
    fallback = ScalarFallbackKernel(program, graph)
    states = fallback.initial_states()
    batch = np.arange(3, dtype=np.int64)
    new, changed = fallback.batch_update(batch, states, states)
    expected, expected_changed = ProtocolKernel(program, graph).batch_update(
        batch, states, states
    )
    assert bits(new) == bits(expected)
    assert changed.tolist() == expected_changed.tolist()
