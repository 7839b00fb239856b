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
"""

import numpy as np
import pytest

import repro.serve.solver as solver_module
from repro.graph import datasets
from repro.graph.builder import from_edges
from repro.gpu.config import SCALED_MACHINE
from repro.serve.context import ServingContext
from repro.serve.query import SERVE_ALGORITHMS
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
    over ``paths_of_vertex()`` it replaced, and ``batch_of_vertex``
    inverts ``layer_batches``."""
    context = ServingContext(
        datasets.load(name, scale=0.3, weighted=True), SCALED_MACHINE
    )
    pre = context.preprocessed
    expected = np.zeros(context.graph.num_vertices, dtype=np.int64)
    for v, path_ids in pre.path_set.paths_of_vertex().items():
        expected[v] = max(pre.dag.layer_of_path(p) for p in path_ids)
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
