"""GAS vertex programs.

The paper's four benchmarks — PageRank, adsorption, SSSP, and k-core — plus
BFS and weakly-connected components as extensions. Each is a
:class:`~repro.model.gas.VertexProgram`, so every engine runs them
unchanged.
"""

from repro.algorithms.adsorption import Adsorption
from repro.algorithms.bfs import BFSLevels
from repro.algorithms.kcore import KCore
from repro.algorithms.pagerank import PageRank
from repro.algorithms.ppr import PersonalizedPageRank
from repro.algorithms.reachability import Reachability
from repro.algorithms.sssp import SSSP
from repro.algorithms.wcc import WeaklyConnectedComponents

#: The paper's benchmark suite in Section 4 order, as factories taking a
#: graph (some programs need graph-derived parameters such as SSSP source).
PAPER_BENCHMARKS = ("pagerank", "adsorption", "sssp", "kcore")

#: name -> (program class, the keyword that defaults to the graph's
#: highest-out-degree vertex — as one id or a one-element list — or None).
_PROGRAMS = {
    "pagerank": (PageRank, None),
    "adsorption": (Adsorption, None),
    "sssp": (SSSP, "source"),
    "kcore": (KCore, None),
    "bfs": (BFSLevels, "source"),
    "wcc": (WeaklyConnectedComponents, None),
    "ppr": (PersonalizedPageRank, "seeds"),
    "reachability": (Reachability, "sources"),
}

#: Every algorithm :func:`make_program` builds (CLI choices, sweep
#: validation and the conformance oracle all read this list).
ALGORITHMS = tuple(_PROGRAMS)

__all__ = [
    "PageRank",
    "Adsorption",
    "SSSP",
    "KCore",
    "BFSLevels",
    "PersonalizedPageRank",
    "Reachability",
    "WeaklyConnectedComponents",
    "PAPER_BENCHMARKS",
    "ALGORITHMS",
    "make_program",
]


def make_program(name: str, graph, **kwargs):
    """Build a benchmark program by name for a given graph.

    Centralizes the per-algorithm setup the harness needs: SSSP and BFS
    pick a deterministic high-out-degree source unless one is given
    (likewise the PPR seed and the reachability source set).
    """
    import numpy as np

    name = name.lower()
    if name not in _PROGRAMS:
        raise ValueError(f"unknown algorithm {name!r}")
    program_class, hub_keyword = _PROGRAMS[name]
    if hub_keyword is not None and hub_keyword not in kwargs:
        hub = int(np.argmax(graph.out_degree()))
        kwargs[hub_keyword] = hub if hub_keyword == "source" else [hub]
    return program_class(**kwargs)
