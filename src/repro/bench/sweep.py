"""Declarative benchmark sweeps with versioned artifacts and regression gates.

Every perf claim in this repo is a sweep over (engine, algorithm, graph,
knob) cells, repeated over seeds — the methodology of "Experimental
Analysis of Distributed Graph Systems": controlled factor matrices,
repeated seeded runs, mean±std per cell. This module is the one code
path all of them share:

- :class:`SweepConfig` declares the matrix: engines × algorithms ×
  graphs × knobs (checkpoint interval, redistribution policy, streaming
  batch size, GPU count, ...), plus seeds and wall-clock repeats.
- :func:`run_sweep` expands the matrix into cells, executes every cell
  ``len(seeds) * repeats`` times through the shared
  :func:`repro.bench.runner.run_cell` path (or
  :func:`~repro.streaming.session.run_stream_cell` for
  ``mode="stream"`` cells), and emits a versioned artifact: schema
  header, config echo, per-cell mean±std for wall-clock and every model
  metric, a frozen :meth:`~repro.gpu.stats.MachineStats.as_dict` counter
  snapshot, and per-seed sha256 determinism digests of the final vertex
  states.
- :func:`compare_sweeps` diffs a fresh sweep against a committed
  baseline: model-time / update-count / round regressions beyond a
  tolerance, determinism-digest mismatches, and vanished cells fail the
  gate; real wall-clock is gated only on request (``wall_tolerance``)
  because it is machine-dependent.

The per-figure experiments (:mod:`repro.bench.experiments`) and the
kernel microbenchmark run *through* :func:`run_sweep`, so a regression
anywhere on the measured path fails the CI ``sweep-gate`` job before it
lands.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms import ALGORITHMS
from repro.bench import runner
from repro.bench.runner import ENGINES
from repro.bench.schema import validate_artifact, write_artifact_file
from repro.errors import ArtifactError, ConfigurationError
from repro.faults.recovery import RecoveryPolicy
from repro.graph import datasets
from repro.graph.generators import TRACE_KNOBS
from repro.knobs import Knob, field_values, knobs_of
from repro.serve.query import SERVE_ALGORITHMS, TraceSpec
from repro.serve.runner import KILL_LAUNCH, run_serve_cell, serve_digest
from repro.serve.server import ServeConfig
from repro.streaming.session import run_stream_cell

#: Artifact schema identity; bump the version on breaking layout changes.
SWEEP_SCHEMA = "repro-sweep"
SWEEP_SCHEMA_VERSION = 1

#: Dict keys carrying host wall-clock measurements — the only fields a
#: repeated run of the same config is allowed to change.  Everything
#: else must be byte-identical, which is what the determinism suite and
#: the gate's digest check enforce.
VOLATILE_KEYS = frozenset(
    {"wall_seconds", "wall_seconds_total", "environment"}
)

def _knob_table(*sources) -> Dict[str, Knob]:
    """Rows by external name: a free :class:`Knob` as given, a config
    dataclass's swept knobs."""
    rows: List[Knob] = []
    for source in sources:
        if isinstance(source, Knob):
            rows.append(source)
        else:
            rows.extend(row for row in knobs_of(source) if row.sweep)
    return {row.name: row for row in rows}


_NUM_GPUS = Knob("num_gpus", int, None, minimum=1)

#: Checkpoint-lifecycle knobs. Any of them turns on fault-free
#: checkpointing, so the cell needs an engine with recovery support
#: (every engine except the sequential reference).
RECOVERY_KNOBS = _knob_table(RecoveryPolicy)

#: The knob table: what a cell of each mode can be varied in, by
#: external name. Free rows pick the machine, the engine build or the
#: mutation trace; the rest are declared on the config dataclass whose
#: field they fill (a serve cell's two configs are built from them by
#: :func:`repro.serve.runner.run_serve_cell`).
MODE_KNOBS = {
    "run": _knob_table(
        _NUM_GPUS,
        Knob("n_workers", int, 1, minimum=1),
        RecoveryPolicy,
    ),
    "stream": _knob_table(_NUM_GPUS, *TRACE_KNOBS),
    "serve": _knob_table(_NUM_GPUS, KILL_LAUNCH, TraceSpec, ServeConfig),
}

#: Metrics the gate treats as "bigger is a regression", out of the
#: model metrics each ``_*_once`` records — all deterministic functions
#: of (engine, algorithm, graph, knobs), so their std over repeats must
#: be 0 and the gate compares means.  Serve cells
#: gate on latency / busy-time / launch counts (all bigger-is-worse);
#: ``queries_per_s`` is bigger-is-better and is covered indirectly —
#: a throughput loss shows up as a gpu_busy_s or latency regression.
GATED_METRICS = {
    "run": ("processing_time_s", "total_time_s", "vertex_updates", "rounds"),
    "stream": ("incremental_s", "vertices_reactivated"),
    "serve": (
        "latency_p50_s",
        "latency_p99_s",
        "gpu_busy_s",
        "launches",
        "queries_failed",
        "deadline_misses",
    ),
}

GraphSpec = Union[str, Dict[str, object]]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class SweepConfig:
    """One declarative sweep matrix.

    ``graphs`` entries are either a built-in dataset name or a generator
    spec dict like ``{"generator": "random_directed", "num_vertices":
    2000, "num_edges": 16000}``; generator graphs draw their seed from
    the sweep's ``seeds`` axis unless the spec pins one, so repeated
    seeded runs measure across graph instances.  ``knobs`` maps a knob
    name to the list of values to sweep; the matrix is the full cross
    product.  ``inject_slowdown`` maps a ``fnmatch`` pattern over cell
    ids to a factor that scales the recorded times — the gate's
    self-test hook (a sweep with an injected slowdown must fail the gate
    against a clean baseline).
    """

    engines: Tuple[str, ...] = ("digraph",)
    algorithms: Tuple[str, ...] = ("pagerank",)
    graphs: Tuple[GraphSpec, ...] = ("cnr",)
    scale: float = 0.25
    mode: str = "run"
    seeds: Tuple[int, ...] = (0,)
    repeats: int = 1
    knobs: Dict[str, Tuple] = field(default_factory=dict)
    inject_slowdown: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: Dict) -> "SweepConfig":
        """Build and validate a config from parsed JSON."""
        _require(isinstance(raw, dict), "sweep config must be a JSON object")
        known = {
            "engines", "algorithms", "graphs", "scale", "mode", "seeds",
            "repeats", "knobs", "inject_slowdown",
        }
        unknown = set(raw) - known
        _require(
            not unknown,
            f"unknown sweep config key(s): {sorted(unknown)}; "
            f"known: {sorted(known)}",
        )

        def as_tuple(key, default):
            value = raw.get(key, default)
            _require(
                isinstance(value, (list, tuple)) and len(value) > 0,
                f"sweep config {key!r} must be a non-empty list",
            )
            return tuple(value)

        graphs = []
        for spec in as_tuple("graphs", ["cnr"]):
            if isinstance(spec, dict):
                graphs.append(tuple(sorted(spec.items())))
            else:
                graphs.append(spec)
        knobs_raw = raw.get("knobs", {})
        _require(
            isinstance(knobs_raw, dict),
            "sweep config 'knobs' must be an object of knob -> values list",
        )
        knobs = {}
        for name, values in knobs_raw.items():
            _require(
                isinstance(values, (list, tuple)) and len(values) > 0,
                f"knob {name!r} must map to a non-empty list of values",
            )
            knobs[name] = tuple(values)
        inject = raw.get("inject_slowdown", {})
        _require(
            isinstance(inject, dict)
            and all(
                isinstance(v, (int, float)) and v > 0
                for v in inject.values()
            ),
            "'inject_slowdown' must map cell-id patterns to positive "
            "factors",
        )
        config = cls(
            engines=as_tuple("engines", ["digraph"]),
            algorithms=as_tuple("algorithms", ["pagerank"]),
            graphs=tuple(graphs),
            scale=raw.get("scale", 0.25),
            mode=raw.get("mode", "run"),
            seeds=tuple(as_tuple("seeds", [0])),
            repeats=raw.get("repeats", 1),
            knobs=knobs,
            inject_slowdown=dict(inject),
        )
        config.validate()
        return config

    @classmethod
    def from_json(cls, path: str) -> "SweepConfig":
        """Load and validate a config file."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read sweep config {path!r}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"sweep config {path!r} is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(raw)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any malformed axis."""
        _require(
            self.mode in ("run", "stream", "serve"),
            f"sweep mode must be 'run', 'stream' or 'serve', "
            f"got {self.mode!r}",
        )
        for engine in self.engines:
            if self.mode == "stream":
                _require(
                    engine == "digraph",
                    "stream-mode sweeps run on the digraph engine only "
                    f"(got {engine!r})",
                )
            elif self.mode == "serve":
                _require(
                    engine == "serve",
                    "serve-mode sweeps use the pseudo-engine 'serve' "
                    f"(got {engine!r})",
                )
            else:
                _require(
                    engine in ENGINES,
                    f"unknown engine {engine!r}; known: {tuple(ENGINES)}",
                )
        if self.mode == "serve":
            servable = SERVE_ALGORITHMS + ("mixed",)
            for algo in self.algorithms:
                _require(
                    algo in servable,
                    f"algorithm {algo!r} is not servable; known: "
                    f"{servable}",
                )
        else:
            for algo in self.algorithms:
                _require(
                    algo in ALGORITHMS,
                    f"unknown algorithm {algo!r}; known: {ALGORITHMS}",
                )
        for spec in self.graphs:
            if isinstance(spec, str):
                _require(
                    spec in datasets.DATASET_NAMES,
                    f"unknown dataset {spec!r}; known: "
                    f"{datasets.DATASET_NAMES}",
                )
            else:
                spec_dict = dict(spec)
                if "graph_dir" in spec_dict:
                    _require(
                        bool(str(spec_dict["graph_dir"]).strip()),
                        "graph_dir graph specs need a non-empty path",
                    )
                else:
                    _require(
                        spec_dict.get("generator") == "random_directed",
                        "graph specs must set "
                        "generator='random_directed' or graph_dir=...",
                    )
                    _require(
                        int(spec_dict.get("num_vertices", 0)) > 0
                        and int(spec_dict.get("num_edges", 0)) > 0,
                        "generator graph specs need positive "
                        "num_vertices and num_edges",
                    )
        _require(
            isinstance(self.scale, (int, float)) and self.scale > 0,
            f"scale must be positive, got {self.scale!r}",
        )
        _require(
            all(isinstance(s, int) for s in self.seeds),
            f"seeds must be integers, got {self.seeds!r}",
        )
        _require(
            isinstance(self.repeats, int) and self.repeats >= 1,
            f"repeats must be a positive integer, got {self.repeats!r}",
        )
        table = MODE_KNOBS[self.mode]
        for name, values in self.knobs.items():
            _require(
                name in table,
                f"unknown {self.mode}-mode knob {name!r}; "
                f"known: {tuple(table)}",
            )
            for value in values:
                table[name].convert(value)
        if set(self.knobs) & set(RECOVERY_KNOBS):
            _require(
                "sequential" not in self.engines,
                "checkpoint knobs need recovery support; the sequential "
                "reference engine has none",
            )

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict:
        """JSON-ready echo of the config (stored in the artifact)."""
        return {
            "engines": list(self.engines),
            "algorithms": list(self.algorithms),
            "graphs": [
                dict(spec) if isinstance(spec, tuple) else spec
                for spec in self.graphs
            ],
            "scale": self.scale,
            "mode": self.mode,
            "seeds": list(self.seeds),
            "repeats": self.repeats,
            "knobs": {name: list(v) for name, v in sorted(self.knobs.items())},
            "inject_slowdown": dict(sorted(self.inject_slowdown.items())),
        }

    def expand(self) -> List["CellSpec"]:
        """The full matrix, one :class:`CellSpec` per cell."""
        knob_names = sorted(self.knobs)
        combos = list(
            itertools.product(*(self.knobs[name] for name in knob_names))
        )
        cells = []
        for engine, algo, graph in itertools.product(
            self.engines, self.algorithms, self.graphs
        ):
            for combo in combos:
                knobs = dict(zip(knob_names, combo))
                cells.append(
                    CellSpec(
                        engine=engine,
                        algorithm=algo,
                        graph=graph,
                        mode=self.mode,
                        scale=self.scale,
                        knobs=knobs,
                    )
                )
        return cells


@dataclass(frozen=True)
class CellSpec:
    """One (engine, algorithm, graph, knobs) point of the matrix."""

    engine: str
    algorithm: str
    graph: GraphSpec
    mode: str
    scale: float
    knobs: Dict[str, object]

    @property
    def graph_label(self) -> str:
        if isinstance(self.graph, str):
            return self.graph
        spec = dict(self.graph)
        if "graph_dir" in spec:
            base = os.path.basename(
                str(spec["graph_dir"]).rstrip("/")
            )
            return f"dir:{base}"
        label = (
            f"{spec['generator']}"
            f"[v={spec['num_vertices']},e={spec['num_edges']}"
        )
        if spec.get("seed") is not None:
            label += f",seed={spec['seed']}"
        return label + "]"

    @property
    def cell_id(self) -> str:
        base = f"{self.engine}/{self.algorithm}/{self.graph_label}"
        if self.knobs:
            base += "/" + ",".join(
                f"{name}={self.knobs[name]}" for name in sorted(self.knobs)
            )
        return base


# ----------------------------------------------------------------------
# cell execution
# ----------------------------------------------------------------------
def _state_digest(states: np.ndarray) -> str:
    arr = np.ascontiguousarray(states)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


#: Materialized ``graph_dir`` stores, keyed by absolute path — a sweep
#: runs many cells over the same store; materialize it once.
_GRAPH_DIR_CACHE: Dict[str, object] = {}


def _resolve_graph(spec: CellSpec, seed: int):
    """Built-in stand-in (seed-insensitive), sharded store, or seeded
    generator draw."""
    if isinstance(spec.graph, str):
        return runner.load_graph(spec.graph, spec.algorithm, spec.scale)
    raw = dict(spec.graph)
    if "graph_dir" in raw:
        from repro.storage import ShardedGraph

        key = os.path.abspath(str(raw["graph_dir"]))
        if key not in _GRAPH_DIR_CACHE:
            _GRAPH_DIR_CACHE[key] = ShardedGraph(
                key,
                max_resident_bytes=(
                    int(raw["cache_bytes"])
                    if raw.get("cache_bytes") is not None
                    else None
                ),
            ).materialize()
        return _GRAPH_DIR_CACHE[key]
    from repro.graph.generators import random_directed

    graph_seed = raw.get("seed")
    return random_directed(
        int(raw["num_vertices"]),
        int(raw["num_edges"]),
        seed=int(graph_seed) if graph_seed is not None else seed,
    )


def _custom_graph(spec: CellSpec, seed: int):
    """``(graph, cell graph name)``: a built-in stand-in is loaded (and
    memoized) by name, so its graph is ``None``; a generator draw or a
    store is passed in under a per-seed name."""
    if isinstance(spec.graph, str):
        return None, spec.graph
    return _resolve_graph(spec, seed), f"{spec.graph_label}@seed{seed}"


def _knob(spec: CellSpec, name: str):
    """A free knob of the cell: its value or the default, typed."""
    row = MODE_KNOBS[spec.mode][name]
    return row.convert(spec.knobs.get(name, row.default))


def _run_once(spec: CellSpec, seed: int) -> Dict[str, object]:
    """One execution of a run-mode cell: metrics + digest + counters."""
    graph, graph_name = _custom_graph(spec, seed)
    (policy,) = field_values(
        {k: v for k, v in spec.knobs.items() if k in RECOVERY_KNOBS},
        RecoveryPolicy,
    )
    t0 = time.perf_counter()
    result = runner.run_cell(
        spec.engine,
        spec.algorithm,
        graph_name,
        scale=spec.scale,
        num_gpus=_knob(spec, "num_gpus"),
        n_workers=_knob(spec, "n_workers"),
        recovery=RecoveryPolicy(**policy) if policy else None,
        use_cache=False,
        graph=graph,
    )
    wall = time.perf_counter() - t0
    return {
        "wall_seconds": wall,
        "converged": bool(result.converged),
        "digest": _state_digest(result.states),
        "stats": result.stats.as_dict(),
        "metrics": {
            "processing_time_s": float(result.processing_time_s),
            "total_time_s": float(result.total_time_s),
            "preprocess_time_s": float(result.preprocess_time_s),
            "rounds": float(result.rounds),
            "vertex_updates": float(result.vertex_updates),
            "edge_traversals": float(result.stats.edge_traversals),
            "traffic_bytes": float(result.traffic_bytes),
        },
    }


def _stream_once(spec: CellSpec, seed: int) -> Dict[str, object]:
    """One execution of a stream-mode cell: a certified trace replay."""
    graph = _resolve_graph(spec, seed)
    t0 = time.perf_counter()
    report = run_stream_cell(
        spec.algorithm,
        spec.graph_label,
        seed=seed,
        graph=graph,
        **{**spec.knobs, "num_gpus": _knob(spec, "num_gpus")},
    )
    wall = time.perf_counter() - t0
    outcomes = report.outcomes
    return {
        "wall_seconds": wall,
        "converged": report.certified,
        "digest": _state_digest(report.session.values),
        "stats": outcomes[-1].result.stats.as_dict() if outcomes else {},
        "modes": sorted({outcome.mode for outcome in outcomes}),
        "certified": report.certified,
        "metrics": report.metrics(),
    }


def _serve_once(spec: CellSpec, seed: int) -> Dict[str, object]:
    """One execution of a serve-mode cell: a full trace served end to end.

    The digest covers every query's per-lane state digest in query-id
    order (:func:`repro.serve.runner.serve_digest`), so any scheduling,
    batching, or kernel change that alters a served answer — or which
    queries fail — flips the cell's determinism digest.
    """
    graph, graph_name = _custom_graph(spec, seed)
    t0 = time.perf_counter()
    report = run_serve_cell(
        spec.algorithm,
        graph_name,
        scale=spec.scale,
        seed=seed,
        use_cache=False,
        graph=graph,
        **spec.knobs,
    )
    wall = time.perf_counter() - t0
    return {
        "wall_seconds": wall,
        "converged": len(report.failed) == 0,
        "digest": serve_digest(report),
        "stats": {"per_tenant": report.per_tenant},
        "metrics": report.metrics(),
    }


def _aggregate(values: Sequence[float]) -> Dict[str, float]:
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


def _slowdown_factor(cell_id: str, inject: Dict[str, float]) -> float:
    from fnmatch import fnmatch

    factor = 1.0
    for pattern, value in inject.items():
        if fnmatch(cell_id, pattern):
            factor *= float(value)
    return factor


def run_sweep_cell(
    spec: CellSpec,
    seeds: Sequence[int] = (0,),
    repeats: int = 1,
    inject_slowdown: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """Execute one cell ``len(seeds) * repeats`` times and aggregate.

    Per seed, every repeat must reproduce the model metrics and the
    state digest bit for bit — the simulation is deterministic, and the
    cell record says so (``deterministic``).  Wall-clock varies and is
    reported as mean±std over all runs.  The recorded ``stats`` bundle
    is a frozen :meth:`~repro.gpu.stats.MachineStats.as_dict` snapshot
    of the first run, so nothing in the artifact aliases live machine
    counters.
    """
    execute = {
        "run": _run_once,
        "stream": _stream_once,
        "serve": _serve_once,
    }[spec.mode]
    runs: List[Dict[str, object]] = []
    digests: Dict[str, str] = {}
    deterministic = True
    for seed in seeds:
        first_of_seed = None
        for _ in range(max(1, repeats)):
            record = execute(spec, seed)
            runs.append(record)
            if first_of_seed is None:
                first_of_seed = record
                digests[str(seed)] = record["digest"]
            else:
                deterministic = deterministic and (
                    record["digest"] == first_of_seed["digest"]
                    and record["metrics"] == first_of_seed["metrics"]
                )

    factor = _slowdown_factor(
        spec.cell_id, inject_slowdown or {}
    )
    metrics: Dict[str, Dict[str, float]] = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        if factor != 1.0 and name.endswith("_s"):
            values = [v * factor for v in values]
        metrics[name] = _aggregate(values)
    wall_values = [run["wall_seconds"] * factor for run in runs]

    cell: Dict[str, object] = {
        "cell_id": spec.cell_id,
        "engine": spec.engine,
        "algorithm": spec.algorithm,
        "graph": spec.graph_label,
        "mode": spec.mode,
        "scale": spec.scale,
        "knobs": {k: spec.knobs[k] for k in sorted(spec.knobs)},
        "seeds": [int(s) for s in seeds],
        "runs": len(runs),
        "deterministic": deterministic,
        "converged": all(run["converged"] for run in runs),
        "digests": digests,
        "metrics": metrics,
        "wall_seconds": _aggregate(wall_values),
        "stats": runs[0]["stats"],
    }
    if spec.mode == "stream":
        cell["modes"] = runs[0]["modes"]
        cell["certified"] = all(run["certified"] for run in runs)
    return cell


def run_sweep(
    config: SweepConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run the whole matrix and return the versioned artifact dict."""
    cells = config.expand()
    records = []
    t0 = time.perf_counter()
    for spec in cells:
        if progress is not None:
            progress(spec.cell_id)
        records.append(
            run_sweep_cell(
                spec,
                seeds=config.seeds,
                repeats=config.repeats,
                inject_slowdown=config.inject_slowdown,
            )
        )
    return {
        "schema": SWEEP_SCHEMA,
        "schema_version": SWEEP_SCHEMA_VERSION,
        "config": config.as_dict(),
        "matrix_cells": len(records),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": sys.platform,
        },
        "cells": records,
        "wall_seconds_total": time.perf_counter() - t0,
    }


# ----------------------------------------------------------------------
# artifact I/O and canonical form
# ----------------------------------------------------------------------
def canonicalize(report: Dict) -> Dict:
    """Strip volatile (wall-clock / host) fields, recursively.

    Two sweeps of the same config on any machine must agree on the
    canonical form byte for byte — the determinism property the test
    suite asserts and the gate's digest check builds on.
    """
    def strip(node):
        if isinstance(node, dict):
            return {
                key: strip(value)
                for key, value in node.items()
                if key not in VOLATILE_KEYS
            }
        if isinstance(node, list):
            return [strip(item) for item in node]
        return node

    return strip(report)


def canonical_bytes(report: Dict) -> bytes:
    """Canonical JSON encoding of :func:`canonicalize`."""
    return json.dumps(
        canonicalize(report), sort_keys=True, separators=(",", ":")
    ).encode()


def load_artifact(path: str) -> Dict:
    """Load and schema-validate a sweep artifact."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ArtifactError(
            f"cannot read sweep artifact {path!r}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ArtifactError(
            f"sweep artifact {path!r} is not valid JSON: {exc}"
        ) from exc
    validate_artifact(data, kind=SWEEP_SCHEMA, path=path)
    return data


# ----------------------------------------------------------------------
# regression gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GateFinding:
    """One gate verdict for one cell/metric pair."""

    cell_id: str
    kind: str          #: regression | digest-mismatch | missing-cell | ...
    detail: str
    severity: str      #: "fail" or "info"

    def __str__(self) -> str:
        return f"[{self.kind}] {self.cell_id}: {self.detail}"


@dataclass
class GateReport:
    """Everything :func:`compare_sweeps` decided."""

    findings: List[GateFinding] = field(default_factory=list)
    cells_checked: int = 0

    @property
    def failures(self) -> List[GateFinding]:
        return [f for f in self.findings if f.severity == "fail"]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"gate {status}: {self.cells_checked} cells checked, "
            f"{len(self.failures)} failure(s), "
            f"{len(self.findings) - len(self.failures)} note(s)"
        )


def _metric_mean(cell: Dict, name: str) -> Optional[float]:
    entry = cell.get("metrics", {}).get(name)
    if entry is None:
        return None
    return float(entry["mean"])


def compare_sweeps(
    baseline: Dict,
    fresh: Dict,
    tolerance: float = 0.15,
    wall_tolerance: Optional[float] = None,
) -> GateReport:
    """Diff a fresh sweep against a committed baseline.

    Failures: a gated model metric regressing beyond ``tolerance``
    (relative), a determinism-digest mismatch between artifacts built in
    the same environment (different environments downgrade the digest
    check to a note — float ops can differ across numpy builds), a cell
    whose repeats stopped being deterministic, a baseline cell missing
    from the fresh sweep, and — only when ``wall_tolerance`` is given —
    a real wall-clock mean regressing beyond it.  New cells and
    improvements are informational.
    """
    if tolerance < 0:
        raise ConfigurationError("gate tolerance must be >= 0")
    report = GateReport()
    fresh_cells = {cell["cell_id"]: cell for cell in fresh.get("cells", [])}
    same_env = baseline.get("environment") == fresh.get("environment")

    for base_cell in baseline.get("cells", []):
        cell_id = base_cell["cell_id"]
        new_cell = fresh_cells.pop(cell_id, None)
        if new_cell is None:
            report.findings.append(
                GateFinding(
                    cell_id,
                    "missing-cell",
                    "cell in baseline but absent from the fresh sweep",
                    "fail",
                )
            )
            continue
        report.cells_checked += 1

        if not new_cell.get("deterministic", True):
            report.findings.append(
                GateFinding(
                    cell_id,
                    "nondeterministic",
                    "repeats of the same seed disagreed on model "
                    "metrics or state digest",
                    "fail",
                )
            )
        if not new_cell.get("converged", True):
            report.findings.append(
                GateFinding(
                    cell_id, "not-converged",
                    "fresh sweep did not converge/certify", "fail",
                )
            )

        base_digests = base_cell.get("digests", {})
        new_digests = new_cell.get("digests", {})
        for seed, digest in base_digests.items():
            other = new_digests.get(seed)
            if other is not None and other != digest:
                report.findings.append(
                    GateFinding(
                        cell_id,
                        "digest-mismatch",
                        f"seed {seed}: state digest {digest[:12]}… -> "
                        f"{other[:12]}…"
                        + (
                            ""
                            if same_env
                            else " (environments differ; not fatal)"
                        ),
                        "fail" if same_env else "info",
                    )
                )

        gated = GATED_METRICS.get(base_cell.get("mode", "run"), ())
        for metric in gated:
            base_mean = _metric_mean(base_cell, metric)
            new_mean = _metric_mean(new_cell, metric)
            if base_mean is None or new_mean is None:
                continue
            if new_mean > base_mean * (1.0 + tolerance) + 1e-12:
                ratio = new_mean / base_mean if base_mean else float("inf")
                report.findings.append(
                    GateFinding(
                        cell_id,
                        "regression",
                        f"{metric}: {base_mean:.6g} -> {new_mean:.6g} "
                        f"(x{ratio:.3f} > 1+{tolerance})",
                        "fail",
                    )
                )
            elif new_mean < base_mean * (1.0 - tolerance) - 1e-12:
                report.findings.append(
                    GateFinding(
                        cell_id,
                        "improvement",
                        f"{metric}: {base_mean:.6g} -> {new_mean:.6g}",
                        "info",
                    )
                )

        if wall_tolerance is not None:
            base_wall = base_cell.get("wall_seconds", {}).get("mean")
            new_wall = new_cell.get("wall_seconds", {}).get("mean")
            if base_wall and new_wall and new_wall > base_wall * (
                1.0 + wall_tolerance
            ):
                report.findings.append(
                    GateFinding(
                        cell_id,
                        "wall-regression",
                        f"wall: {base_wall:.4f}s -> {new_wall:.4f}s "
                        f"(> 1+{wall_tolerance})",
                        "fail",
                    )
                )

    for cell_id in fresh_cells:
        report.findings.append(
            GateFinding(
                cell_id, "new-cell",
                "cell not present in the baseline", "info",
            )
        )
    return report


def refresh_baseline(config: SweepConfig, path: str) -> Dict:
    """Run the matrix and commit its artifact as the new baseline."""
    report = run_sweep(config)
    write_artifact_file(report, path)
    return report
