"""DiGraph's contribution: path-based iterative directed graph processing.

The pipeline mirrors Section 3 of the paper:

1. :mod:`~repro.core.partitioning` — Algorithm 1 decomposes the directed
   graph into disjoint hot/cold paths (plus head-to-tail merging), held
   as one flat :class:`~repro.core.paths.PathSet` layout;
2. :mod:`~repro.core.dependency` — the path dependency graph, its SCC
   contraction into the DAG sketch, and layer numbers;
3. :mod:`~repro.core.storage` — the ``E_Idx``/``S_val``/``E_val``/``V_val``/
   ``PTable`` array layout of Fig. 4;
4. :mod:`~repro.core.replicas` — master/mirror replicas, proxy vertices,
   and destination-partition message batching;
5. :mod:`~repro.core.scheduling` — the ``Pri(p)`` soft-priority SMX path
   scheduler;
6. :mod:`~repro.core.dispatch` — dependency-aware dispatch to GPUs with
   batched transfer, prefetch, and work stealing;
7. :mod:`~repro.core.engine` — the path-based asynchronous execution engine
   tying it together; its config flags ``use_path_execution`` and
   ``use_priority_scheduling`` switch off the two halves the paper's
   DiGraph-t / DiGraph-w ablations remove (the ``digraph-t`` /
   ``digraph-w`` rows of :data:`repro.bench.runner.ENGINES`).
"""

from repro.core.engine import DiGraphEngine
from repro.core.partitioning import decompose_into_paths
from repro.core.paths import PathSet

__all__ = [
    "DiGraphEngine",
    "PathSet",
    "decompose_into_paths",
]
