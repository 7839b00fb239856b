"""Shared serving context: one preprocessing, many queries.

The DiGraph paper amortizes path decomposition across *rounds*; the
serving layer amortizes it across *queries*. A :class:`ServingContext`
runs :meth:`DiGraphEngine.preprocess` exactly once — Algorithm-1 path
decomposition, head-to-tail merging, the path dependency DAG — and every
query batch the server dispatches reuses it.

What the queries actually reuse is the **layer schedule**: each vertex
gets the layer of the deepest dependency-DAG layer among the paths it
lies on, and the multi-source solver sweeps vertices layer by layer
(Gauss-Seidel across layers, Jacobi within one), so updates flow down
the DAG in one round the way the path engine's Observation 1 propagates
them along a path. Building that schedule costs one DAG traversal at
context construction and zero per query.

Every launch of a layer batch gathers over the same in-edges and
activates along the same out-edges, whichever vertices of the batch are
active. The context cuts both once per batch — a
:class:`~repro.kernels.segment.GatherTable` of its CSC in-edges and a
:class:`ScatterTable` of its CSR out-edges — and a launch masks their
rows with the batch's active flags instead of re-cutting them from the
graph.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.engine import DiGraphConfig, DiGraphEngine, Preprocessed
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraphCSR
from repro.gpu.config import MachineSpec, SCALED_MACHINE
from repro.kernels.base import cut_gather_table
from repro.kernels.segment import GatherTable, batch_segments


class ScatterTable(NamedTuple):
    """The CSR out-edges of a layer batch, end to end: row ``r`` (the
    batch's ``r``-th vertex) owns the next ``counts[r]`` entries of
    ``targets``, in CSR order; ``target_batch`` is each target's layer
    batch."""

    targets: np.ndarray
    target_batch: np.ndarray
    counts: np.ndarray

    @obs.span
    def cut(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(targets, target_batch)`` of the rows where the bool mask
        ``rows`` is set, row by row: the out-neighbors of those rows'
        vertices, in ``batch_dependents`` order."""
        edges = rows.repeat(self.counts)
        return self.targets[edges], self.target_batch[edges]


class ServingContext:
    """Preprocessed graph + layer schedule shared by all served queries."""

    def __init__(
        self,
        graph: DiGraphCSR,
        machine_spec: Optional[MachineSpec] = None,
        engine_config: Optional[DiGraphConfig] = None,
        graph_name: str = "graph",
    ) -> None:
        if graph.num_vertices == 0:
            raise ConfigurationError("cannot serve an empty graph")
        self.graph = graph
        self.graph_name = graph_name
        self.spec = machine_spec or SCALED_MACHINE
        self.engine = DiGraphEngine(
            machine_spec=self.spec, config=engine_config
        )
        self.preprocessed: Preprocessed = self.engine.preprocess(graph)
        self.vertex_layers = self._derive_vertex_layers()
        #: Index into :attr:`layer_batches` of the batch holding each
        #: vertex (a layer no vertex landed on has no batch).
        _, self.batch_of_vertex = np.unique(
            self.vertex_layers, return_inverse=True
        )
        self.layer_batches = self._build_layer_batches()
        #: Per layer batch, the in-edges a launch gathers over (every
        #: column) and the out-edges it activates along.
        self.gather_tables: List[GatherTable] = [
            cut_gather_table(graph, batch) for batch in self.layer_batches
        ]
        self.scatter_tables = [
            self._scatter_table(batch) for batch in self.layer_batches
        ]

    # ------------------------------------------------------------------
    # layer schedule
    # ------------------------------------------------------------------
    def _derive_vertex_layers(self) -> np.ndarray:
        """Per-vertex layer: deepest DAG layer among containing paths.

        A vertex on several paths must wait for the *latest* of them
        (its final value can depend on every path that writes it), hence
        the max. Vertices on no path (isolated) go to layer 0. One pass
        over the storage layout: ``e_idx`` lists every path's vertices,
        ``ptable`` delimits the paths, in slot order.
        """
        dag, storage = self.preprocessed.dag, self.preprocessed.storage
        slot_layers = np.empty(storage.slot_of_path.size, dtype=np.int64)
        slot_layers[storage.slot_of_path] = dag.layer_of_scc[dag.scc_of_path]
        layers = np.zeros(self.graph.num_vertices, dtype=np.int64)
        np.maximum.at(
            layers,
            storage.e_idx,
            np.repeat(slot_layers, storage.ptable[1:] - storage.ptable[:-1]),
        )
        return layers

    def _build_layer_batches(self) -> List[np.ndarray]:
        """Vertices grouped by layer, ascending layer, ascending id.

        This is the deterministic sweep order every solver (vectorized
        lane kernels and the scalar golden reference alike) uses, so
        batched and single-source runs see identical schedules.
        """
        order = np.argsort(self.batch_of_vertex, kind="stable")
        bounds = np.searchsorted(
            self.batch_of_vertex[order],
            np.arange(1, int(self.batch_of_vertex.max()) + 1),
        )
        return np.split(order, bounds)

    def _scatter_table(self, batch: np.ndarray) -> ScatterTable:
        graph = self.graph
        positions, _ = batch_segments(graph.indptr, graph.out_degree(), batch)
        targets = graph.indices[positions]
        return ScatterTable(
            targets,
            self.batch_of_vertex[targets],
            graph.out_degree()[batch],
        )

    @property
    def num_layers(self) -> int:
        return len(self.layer_batches)

    def __repr__(self) -> str:
        return (
            f"ServingContext(graph={self.graph_name!r}, "
            f"n={self.graph.num_vertices}, layers={self.num_layers}, "
            f"paths={self.preprocessed.path_set.num_paths})"
        )
