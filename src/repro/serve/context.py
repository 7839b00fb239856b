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
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.engine import DiGraphConfig, DiGraphEngine, Preprocessed
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraphCSR
from repro.gpu.config import MachineSpec, SCALED_MACHINE


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

    @property
    def num_layers(self) -> int:
        return len(self.layer_batches)

    def __repr__(self) -> str:
        return (
            f"ServingContext(graph={self.graph_name!r}, "
            f"n={self.graph.num_vertices}, layers={self.num_layers}, "
            f"paths={self.preprocessed.path_set.num_paths})"
        )
