"""BFS hop levels as a GAS program (extension beyond the paper's four).

SSSP with unit weights: everything but the gather contribution is
SSSP's. The program pins that contribution to ``level(u) + 1``, so the
levels stay integers whatever the graph's weights, and several tests use
it as a ground-truth oracle against
:func:`repro.graph.traversal.bfs_levels`.
"""

from __future__ import annotations

from repro.algorithms.sssp import INFINITY, SSSP


class BFSLevels(SSSP):
    """Hop distance from ``source``; unreached vertices stay at infinity."""

    name = "bfs"

    def gather(self, src_state: float, weight: float, src: int, dst: int) -> float:
        if src_state == INFINITY:
            return INFINITY
        return src_state + 1.0
