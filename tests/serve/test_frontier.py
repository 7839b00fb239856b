"""The solver's per-batch frontier flags and the context tables under them.

``MultiSourceSolver.solve`` visits only the layer batches whose
``pending`` flag is set instead of probing every batch's ``active``
columns. That is sound only while ``pending[b]`` equals
``active[..., layer_batches[b]].any()`` whenever the sweep reads it; the
recording solver below checks the equality for *every* batch before
every launch (which is after every previous launch) and once more when
the solve returns, on graphs where a launch re-flags its own batch.
``active`` is ``(n,)`` in a one-query solve (the 1-D kernel) and
``(k, n)`` in a k-query one; every audit and fixture takes both.

A launch reads the context's per-batch gather and scatter tables, masked
to its frontier; the property test at the end holds those masked tables
to the frontier cut (``batch_update`` / ``batch_dependents``) of the
same vertices, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.serve.solver as solver_module
from repro.graph import datasets
from repro.graph.builder import from_edges
from repro.gpu.config import SCALED_MACHINE
from repro.serve.context import ServingContext
from repro.serve.query import SERVE_ALGORITHMS
from repro.kernels.base import take_vertices
from repro.serve.solver import MultiSourceSolver
from tests.serve.test_lane_equivalence import SPEC, programs_for


class RecordingSolver(MultiSourceSolver):
    """Captures the solve's ``active`` / ``pending`` arrays (both are
    mutated in place) and audits them from the fault hook."""

    def __init__(self, context, programs, **kwargs):
        super().__init__(
            context, programs, fault_hook=self._audit, **kwargs
        )
        self.audits = 0

    def _pending_batches(self, active):
        self.active = active
        self.pending = super()._pending_batches(active)
        return self.pending

    def _audit(self, _launch=None):
        expected = [
            bool(self.active[..., batch].any())
            for batch in self.context.layer_batches
        ]
        assert self.pending.tolist() == expected
        self.audits += 1

    def solve(self, **kwargs):
        result = super().solve(**kwargs)
        self._audit()
        return result


def lane_rows(array):
    """``(k, n)`` view of a solve's ``(n,)`` or ``(k, n)`` array."""
    return array.reshape(-1, array.shape[-1])


def intra_batch_edges(context):
    """Edges whose endpoints share a layer batch."""
    graph = context.graph
    src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    same = context.batch_of_vertex[src] == context.batch_of_vertex[
        graph.indices
    ]
    return int(same.sum())


@pytest.fixture(scope="module")
def web_context():
    graph = datasets.load("webbase", scale=0.3, weighted=True)
    return ServingContext(graph, SCALED_MACHINE, graph_name="webbase")


@pytest.fixture(scope="module")
def ring_context():
    """A bidirectional ring 0-1-2-3 feeding a tail. Vertices 0, 1, 2
    land in one batch and keep re-activating each other; 3 sits one
    batch later and activates backwards, into the next round."""
    edges = [
        (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3),
        (3, 4), (4, 5),
    ]
    return ServingContext(from_edges(edges, num_vertices=7), SPEC)


@pytest.fixture
def settled_lanes(monkeypatch):
    """Make chosen lanes start where they would end: at their fixed
    point, with an empty frontier."""

    def install(final_states):
        resolve = solver_module.resolve_kernel

        def resolve_settled(programs, graph):
            kernel = resolve(programs, graph)
            states, active = kernel.initial_states(), kernel.initial_active()
            for lane, final in final_states.items():
                lane_rows(states)[lane] = final
                lane_rows(active)[lane] = False
            kernel.initial_states = lambda: states
            kernel.initial_active = lambda: active
            return kernel

        monkeypatch.setattr(
            solver_module, "resolve_kernel", resolve_settled
        )

    return install


@pytest.fixture
def built_kernels(monkeypatch):
    """Every kernel a solve resolves, in order."""
    kernels = []
    resolve = solver_module.resolve_kernel

    def resolve_recorded(programs, graph):
        kernels.append(resolve(programs, graph))
        return kernels[-1]

    monkeypatch.setattr(solver_module, "resolve_kernel", resolve_recorded)
    return kernels


@pytest.mark.parametrize("algorithm", SERVE_ALGORITHMS)
@pytest.mark.parametrize("lanes", [1, 3, 8])
def test_pending_flags_track_the_union_frontier(
    web_context, built_kernels, algorithm, lanes
):
    assert intra_batch_edges(web_context) > 0
    programs = programs_for(web_context, algorithm, lanes, seed=5)
    solver = RecordingSolver(web_context, programs)
    result = solver.solve()
    # One query runs the 1-D kernel, never a (1, n) sequence.
    (kernel,) = built_kernels
    assert kernel.num_lanes == (None if lanes == 1 else lanes)
    assert result.states.shape == (lanes, web_context.graph.num_vertices)
    assert solver.audits == result.launches + 1
    assert not solver.pending.any() and not solver.active.any()
    assert result.digests == (
        MultiSourceSolver(web_context, programs).solve_reference().digests
    )


@pytest.mark.parametrize("algorithm", SERVE_ALGORITHMS)
def test_pending_flags_survive_a_budget_stop(web_context, algorithm):
    """A brownout stop leaves flags set; the residual pass launches
    exactly those batches and leaves frontier and flags as they were."""
    programs = programs_for(web_context, algorithm, 3, seed=5)
    full = MultiSourceSolver(web_context, programs).solve()
    solver = RecordingSolver(web_context, programs)
    result = solver.solve(time_budget_s=0.4 * full.modeled_seconds)
    assert not result.converged
    assert solver.pending.any()
    assert solver.audits == result.launches + 1


@pytest.mark.parametrize("algorithm", SERVE_ALGORITHMS)
def test_a_batch_reflags_itself_across_rounds(ring_context, algorithm):
    context = ring_context
    batch_of = context.batch_of_vertex
    assert batch_of[0] == batch_of[1] == batch_of[2] < batch_of[3]
    assert intra_batch_edges(context) >= 4
    programs = programs_for(context, algorithm, 3, seed=1)
    solver = RecordingSolver(context, programs)
    result = solver.solve()
    assert result.rounds > 1
    assert solver.audits == result.launches + 1
    assert result.digests == (
        MultiSourceSolver(context, programs).solve_reference().digests
    )


@pytest.mark.parametrize("algorithm", SERVE_ALGORITHMS)
@pytest.mark.parametrize(
    "lanes, idle",
    [(3, (1,)), (3, (0, 2)), (3, (0, 1, 2)), (1, (0,))],
    ids=["idle0", "idle1", "idle2", "lanes1"],
)
def test_lanes_with_an_empty_initial_frontier(
    web_context, settled_lanes, algorithm, lanes, idle
):
    programs = programs_for(web_context, algorithm, lanes, seed=5)
    plain = MultiSourceSolver(web_context, programs).solve()
    settled_lanes({lane: plain.states[lane] for lane in idle})
    solver = RecordingSolver(web_context, programs)
    result = solver.solve()
    assert solver.active.ndim == (1 if lanes == 1 else 2)
    assert solver.audits == result.launches + 1
    assert result.converged
    assert result.digests == plain.digests
    for lane in range(lanes):
        assert result.lane_rounds[lane] == (
            0 if lane in idle else plain.lane_rounds[lane]
        )
    if len(idle) == lanes:
        assert (result.rounds, result.launches) == (0, 0)


@pytest.mark.parametrize("name", ["webbase", "twitter"])
def test_layer_tables_equal_the_dict_form(name):
    """``vertex_layers`` from the storage arrays is the per-vertex max
    over the paths the vertex lies on, which it replaced, and
    ``batch_of_vertex`` inverts ``layer_batches``."""
    context = ServingContext(
        datasets.load(name, scale=0.3, weighted=True), SCALED_MACHINE
    )
    pre = context.preprocessed
    expected = np.zeros(context.graph.num_vertices, dtype=np.int64)
    for path_id, vertices in enumerate(pre.path_set.sequences):
        layer = pre.dag.layer_of_path(path_id)
        for v in vertices:
            expected[v] = max(expected[v], layer)
    assert context.vertex_layers.dtype == np.int64
    assert np.array_equal(context.vertex_layers, expected)

    seen = np.zeros(context.graph.num_vertices, dtype=np.int64)
    previous_layer = -1
    for b, batch in enumerate(context.layer_batches):
        assert batch.size > 0
        assert np.all(np.diff(batch) > 0)
        assert np.all(context.batch_of_vertex[batch] == b)
        layers = set(context.vertex_layers[batch].tolist())
        assert len(layers) == 1 and min(layers) > previous_layer
        previous_layer = min(layers)
        seen[batch] += 1
    assert np.all(seen == 1)


@pytest.mark.parametrize("algorithm", SERVE_ALGORITHMS)
@pytest.mark.parametrize("lanes", [1, 3])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_table_launch_is_the_frontier_cut(
    web_context, algorithm, lanes, data
):
    """Masking a batch's gather and scatter tables with an active mask
    gives the kernel table, ``new``, ``changed``, dependents and their
    order that cutting the CSC / CSR for the selected vertices gives;
    so does the kernel over the whole batch's table, at those rows."""
    context = web_context
    seed = data.draw(st.integers(0, 2**16), label="seed")
    programs = programs_for(context, algorithm, lanes, seed)
    kernel = solver_module.resolve_kernel(
        programs[0] if lanes == 1 else programs, context.graph
    )
    b = data.draw(st.integers(0, context.num_layers - 1), label="batch")
    batch = context.layer_batches[b]
    rows = np.array(
        data.draw(
            st.lists(st.booleans(), min_size=batch.size, max_size=batch.size)
        )
    )
    rows[data.draw(st.integers(0, batch.size - 1))] = True
    sel = batch[rows]
    # Salted states, so that some selected vertices move and some not.
    rng = np.random.default_rng(seed)
    states = kernel.initial_states()
    salt = rng.random(states.shape) < 0.5
    states[salt] = rng.integers(0, 4, size=int(salt.sum())) * 0.5
    old = take_vertices(states, sel)

    table = context.gather_tables[b].select(rows, kernel.columns)
    cut = kernel.gather_table(sel)
    for name in ("counts", "offsets") + kernel.columns:
        assert getattr(table, name).tobytes() == getattr(cut, name).tobytes()
    new, changed = kernel.update(table, sel, states, old)
    expected_new, expected_changed = kernel.batch_update(sel, states, old)
    assert new.tobytes() == expected_new.tobytes()
    assert changed.tobytes() == expected_changed.tobytes()
    whole_new, whole_changed = kernel.update(
        context.gather_tables[b], batch, states, take_vertices(states, batch)
    )
    assert np.compress(rows, whole_new, axis=-1).tobytes() == new.tobytes()
    assert np.array_equal(np.compress(rows, whole_changed, axis=-1), changed)

    moved_any = changed.reshape(-1, sel.size).any(axis=0)
    moved = rows.copy()
    moved[rows] = moved_any
    targets, target_batch = context.scatter_tables[b].cut(moved)
    expected_targets, _ = kernel.batch_dependents(sel[moved_any])
    assert targets.tolist() == expected_targets.tolist()
    assert np.array_equal(
        target_batch, context.batch_of_vertex[expected_targets]
    )


def test_a_whole_batch_launch_leaves_the_idle_rows_alone(
    web_context, monkeypatch
):
    """A whole-batch launch recomputes every row of its batch, and must
    drop the changes of the rows no lane has active. One sssp query
    whose initial states put an idle vertex off its fixed point (an idle
    in-neighbor starts at distance 0), in a whole-batch batch that also
    holds an active vertex: the solve still equals the reference, which
    computes the active vertices only."""
    context = web_context
    graph = context.graph
    (program,) = programs_for(context, "sssp", 1, seed=5)
    states = program.initial_states(graph)
    active = program.initial_active(graph)
    b, idle, feeder = next(
        (b, int(u), int(w))
        for b, batch in enumerate(context.layer_batches)
        if active[batch].any()
        and context.gather_tables[b].offsets[-1]
        <= solver_module.WHOLE_BATCH_LANE_EDGES
        for u in batch[~active[batch]]
        for w in graph.predecessors(int(u))
        if not active[w] and w != program.source
    )
    initial_states = program.initial_states

    def off_fixed_point(g):
        states = initial_states(g)
        states[feeder] = 0.0
        return states

    monkeypatch.setattr(program, "initial_states", off_fixed_point)
    _, moves = program.update_vertex(graph, idle, off_fixed_point(graph))
    assert moves and context.batch_of_vertex[idle] == b
    solver = MultiSourceSolver(context, [program])
    solved, reference = solver.solve(), solver.solve_reference()
    assert solved.digests == reference.digests
    assert solved.launches == reference.launches
    assert solved.edge_lane_work == reference.edge_lane_work
