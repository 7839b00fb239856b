"""Gather-Apply-Scatter vertex programs.

A :class:`VertexProgram` defines one iterative directed-graph algorithm in
the pull-style GAS form all engines share:

- **gather**: for an active vertex ``v``, read ``(u, w)`` pairs from
  :meth:`gather_edges` (in-edges by default) and fold
  ``gather(state[u], w, u, v)`` values with :meth:`accumulate` starting
  from :attr:`identity`;
- **apply**: compute the new state from the old state and the accumulator;
- **scatter**: if the state changed (per :meth:`has_converged`), activate
  :meth:`dependents` (out-neighbors by default — the vertices whose gather
  reads ``v``).

Pull-style gathering makes every engine's update *idempotent and
order-insensitive in the limit*: synchronous (Jacobi), asynchronous
(chaotic relaxation), and path-sequential (Gauss-Seidel along paths)
execution all converge to the same fixed point, differing only in how many
updates they need — which is precisely the quantity the paper's evaluation
compares (Fig. 11).
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.graph.digraph import DiGraphCSR

#: A gather input: (source vertex, edge weight).
GatherEdge = Tuple[int, float]


class VertexProgram(abc.ABC):
    """One iterative algorithm expressed in pull-style GAS form."""

    #: Human-readable algorithm name (used in reports).
    name: str = "vertex-program"

    #: Absolute state-change tolerance below which a vertex is converged.
    tolerance: float = 1e-6

    # ------------------------------------------------------------------
    # initialization
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def initial_states(self, graph: DiGraphCSR) -> np.ndarray:
        """Initial state per vertex (float64 array of length ``n``)."""

    def initial_active(self, graph: DiGraphCSR) -> np.ndarray:
        """Initially-active vertices; default: all active."""
        return np.ones(graph.num_vertices, dtype=bool)

    # ------------------------------------------------------------------
    # gather
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def identity(self) -> float:
        """Identity element of :meth:`accumulate`."""

    @abc.abstractmethod
    def gather(
        self, src_state: float, weight: float, src: int, dst: int
    ) -> float:
        """Value contributed by in-neighbor ``src`` to ``dst``'s accumulator."""

    @abc.abstractmethod
    def accumulate(self, a: float, b: float) -> float:
        """Commutative, associative fold of gather values."""

    def gather_edges(
        self, graph: DiGraphCSR, v: int
    ) -> Iterator[GatherEdge]:
        """Edges vertex ``v`` reads during gather; default: in-edges."""
        return zip(
            graph.predecessors(v).tolist(), graph.in_weights(v).tolist()
        )

    def gather_degree(self, graph: DiGraphCSR, v: int) -> int:
        """Number of gather edges of ``v`` (simulator work accounting)."""
        return graph.in_degree(v)

    # ------------------------------------------------------------------
    # apply / scatter
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def apply(self, v: int, old_state: float, acc: float) -> float:
        """New state of ``v`` given the folded accumulator."""

    def has_converged(self, old_state: float, new_state: float) -> bool:
        """Whether an update left the state effectively unchanged."""
        return abs(new_state - old_state) <= self.tolerance

    def dependents(self, graph: DiGraphCSR, v: int) -> Iterable[int]:
        """Vertices to activate when ``v``'s state changes.

        Default: out-neighbors, because their gather reads ``v``. Programs
        that gather over both directions must override this symmetrically.
        """
        return graph.successors(v).tolist()

    # ------------------------------------------------------------------
    # conveniences used by engines
    # ------------------------------------------------------------------
    def full_gather(self, graph: DiGraphCSR, v: int, states) -> float:
        """Fold all gather edges of ``v`` against current ``states``."""
        acc = self.identity
        for src, weight in self.gather_edges(graph, v):
            acc = self.accumulate(acc, self.gather(float(states[src]), weight, src, v))
        return acc

    def update_vertex(
        self,
        graph: DiGraphCSR,
        v: int,
        states,
        old_state: Optional[float] = None,
    ) -> Tuple[float, bool]:
        """Gather + apply for ``v``; returns ``(new_state, changed)``.

        ``states`` is anything indexable by vertex id — the raw array or a
        :class:`~repro.model.state.StalenessView`. ``old_state`` overrides
        the self-read (engines pass the fresh master value when gathering
        through a staleness view). Does **not** write ``states`` — engines
        decide when writes become visible (that is the whole difference
        between them).
        """
        acc = self.full_gather(graph, v, states)
        old = float(states[v]) if old_state is None else old_state
        new = self.apply(v, old, acc)
        return new, not self.has_converged(old, new)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
