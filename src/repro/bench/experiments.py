"""One experiment per table/figure of the paper's evaluation.

An engine-by-graph figure is a :class:`Figure` row and a line plot a
:class:`Series` row, each swept and laid out by its one runner; the rest
are functions. Every entry of :data:`EXPERIMENTS` takes ``scale=`` and
returns a dict with the raw results plus a ``table`` string shaped like
the figure. ``benchmarks/`` runs them; EXPERIMENTS.md records
paper-vs-measured for each.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import PAPER_BENCHMARKS, make_program
from repro.baselines.sequential import sequential_topological_run
from repro.bench.reporting import (
    format_table,
    matrix_table,
    normalized_matrix,
    series_table,
)
from repro.bench.results import ExecutionResult
from repro.bench.runner import DEFAULT_SCALE, load_graph, run_cell
from repro.bench.schema import write_artifact_file
from repro.core.engine import DiGraphConfig, DiGraphEngine
from repro.graph import datasets
from repro.graph.generators import TRACE_KNOBS, add_bidirectional_edges
from repro.graph.scc import scc_statistics
from repro.gpu.config import SCALED_MACHINE

#: Figure order of datasets and benchmark algorithms.
GRAPHS = list(datasets.DATASET_NAMES)
ALGOS = tuple(PAPER_BENCHMARKS)

#: The three cross-system engines of Figs. 8-15.
SYSTEMS = ("bulk-sync", "async", "digraph")

Metric = Callable[[ExecutionResult], float]


@dataclass(frozen=True)
class Figure:
    """An engine-by-graph figure: every engine on the six graphs, once
    per algorithm, read through one or more metrics. The defaults are
    the common case: the three systems on pagerank, against bulk-sync."""

    title: str  #: of each table; may name ``{algo}`` and ``{metric}``
    metrics: Dict[str, Metric]  #: by the name titles and columns use
    engines: Tuple[str, ...] = SYSTEMS
    algorithms: Tuple[str, ...] = ("pagerank",)
    baseline: Optional[str] = "bulk-sync"  #: None: the metric's own value
    #: "matrix": graph x engine per metric, value over the baseline's;
    #: "speedup": the same with the baseline's over the value;
    #: "rows": one row per graph and engine, one column per metric.
    layout: str = "matrix"


@dataclass(frozen=True)
class Series:
    """A pagerank line plot: ``lines`` on one graph over the ``xs``."""

    title: str
    x_label: str
    xs: Tuple
    graph: str
    lines: Dict[str, Dict]  #: line name -> its fixed ``run_cell`` arguments
    #: ``(x, the graph's stand-in)`` -> that x's ``run_cell`` arguments.
    cell: Callable[[object, object], Dict]
    #: One column per line when there is one metric, else per metric.
    metrics: Dict[str, Metric]


def run_figure(
    figure: Figure,
    scale: float = DEFAULT_SCALE,
    algos: Optional[Sequence[str]] = None,
) -> dict:
    """Sweep a :class:`Figure`'s cells and lay its tables out.

    Returns ``cells[algo][graph][engine]`` (the raw results),
    ``values[algo][metric][graph][engine]`` (what the tables print) and
    ``table``. ``algos`` restricts the figure to some of its algorithms.
    """
    cells = {
        algo: {
            graph: {
                engine: run_cell(engine, algo, graph, scale=scale)
                for engine in figure.engines
            }
            for graph in GRAPHS
        }
        for algo in algos or figure.algorithms
    }
    values = {
        algo: {
            name: normalized_matrix(
                per_graph, metric, figure.baseline,
                invert=figure.layout == "speedup",
            )
            for name, metric in figure.metrics.items()
        }
        for algo, per_graph in cells.items()
    }
    tables = []
    for algo, per_metric in values.items():
        if figure.layout == "rows":
            matrices = per_metric.values()
            rows = [
                [graph, engine, *(m[graph][engine] for m in matrices)]
                for graph in GRAPHS
                for engine in figure.engines
            ]
            columns = ["graph", "engine", *per_metric]
            tables.append(
                format_table(figure.title.format(algo=algo), columns, rows)
            )
            continue
        tables += [
            matrix_table(
                figure.title.format(algo=algo, metric=name),
                matrix,
                figure.engines,
            )
            for name, matrix in per_metric.items()
        ]
    return {"cells": cells, "values": values, "table": "\n\n".join(tables)}


def run_series(series: Series, scale: float = DEFAULT_SCALE) -> dict:
    """Sweep a :class:`Series`' cells and lay its table out.

    Returns ``cells["pagerank"][x][line]``,
    ``values["pagerank"][metric][x][line]`` and ``table``.
    """
    base = load_graph(series.graph, "pagerank", scale)
    cells = {}
    for x in series.xs:
        at_x = {"graph_name": series.graph, **series.cell(x, base)}
        cells[x] = {
            line: run_cell(algo="pagerank", scale=scale, **at_x, **fixed)
            for line, fixed in series.lines.items()
        }
    values = {
        name: normalized_matrix(cells, metric, None)
        for name, metric in series.metrics.items()
    }
    columns = {
        (line if len(values) == 1 else name): [per_x[x][line] for x in cells]
        for name, per_x in values.items()
        for line in series.lines
    }
    return {
        "cells": {"pagerank": cells},
        "values": {"pagerank": values},
        "table": series_table(
            series.title, series.x_label, list(cells), columns
        ),
    }


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def table1(scale: float = DEFAULT_SCALE) -> dict:
    """Dataset properties (V, E, A_Deg, A_Dis) of the stand-ins."""
    rows = []
    for props in datasets.table1(scale=scale):
        rows.append(
            [
                props.name,
                props.num_vertices,
                props.num_edges,
                props.average_degree,
                props.average_distance,
            ]
        )
    table = format_table(
        "Table 1 (stand-ins): dataset properties",
        ["dataset", "#V", "#E", "A_Deg", "A_Dis"],
        rows,
    )
    return {"rows": rows, "table": table}


# ----------------------------------------------------------------------
# Fig. 2 — motivation: async partition reprocessing + sequential oracle
# ----------------------------------------------------------------------
def fig2_motivation(
    scale: float = DEFAULT_SCALE, graph_name: str = "webbase"
) -> dict:
    """Fig. 2(a-c): the async baseline's per-round partition behavior for
    SSSP over 2 vs 4 GPUs; Fig. 2(d): sequential-oracle update counts."""
    per_gpus = {}
    for num_gpus in (2, 4):
        result = run_cell(
            "async", "sssp", graph_name, scale=scale, num_gpus=num_gpus
        )
        per_gpus[num_gpus] = result
    rows_abc = []
    for num_gpus, result in per_gpus.items():
        records = result.round_records
        reprocessed = sum(
            count - 1
            for count in result.stats.partition_processed.values()
            if count > 1
        )
        mean_active_fraction = float(
            np.mean([r.active_fraction_nonconvergent for r in records])
        ) if records else 0.0
        rows_abc.append(
            [
                num_gpus,
                result.rounds,
                reprocessed,
                mean_active_fraction,
            ]
        )
    table_abc = format_table(
        f"Fig 2(a-c): async (Groute-like) SSSP on {graph_name} — "
        "partition reprocessing",
        ["gpus", "rounds", "re-passes", "activefrac"],
        rows_abc,
    )

    rows_d = []
    for graph in GRAPHS:
        g = load_graph(graph, "pagerank", scale)
        stats = scc_statistics(g)
        seq = sequential_topological_run(g, make_program("pagerank", g))
        rows_d.append(
            [
                graph,
                seq.vertex_updates,
                seq.one_update_fraction,
                stats.giant_scc_fraction,
            ]
        )
    table_d = format_table(
        "Fig 2(d): sequential topological execution (pagerank)",
        ["graph", "updates", "1-upd-frac", "giant-scc"],
        rows_d,
    )
    return {
        "per_gpus": per_gpus,
        "rows_abc": rows_abc,
        "rows_d": rows_d,
        "table": table_abc + "\n\n" + table_d,
    }


# ----------------------------------------------------------------------
# Figs. 6-15, Fig. 17 and the ablations: one row each
# ----------------------------------------------------------------------
def _time_s(result: ExecutionResult) -> float:
    return result.processing_time_s


def _time_ms(result: ExecutionResult) -> float:
    return result.processing_time_s * 1e3


def _updates(result: ExecutionResult) -> float:
    return float(result.vertex_updates)


def _variant_figure(label: str, variant: str) -> Figure:
    """Figs. 6/7: DiGraph against one of its ablation variants, in
    processing time and in the update counts that explain it."""
    return Figure(
        f"{label} ({{algo}}): {{metric}} normalized to {variant}",
        {"time": _time_s, "updates": _updates},
        engines=("digraph", variant), algorithms=ALGOS, baseline=variant,
    )


#: Every engine-by-graph figure of the evaluation, by experiment name.
FIGURES = {
    "fig6_vs_digraph_t": _variant_figure("Fig 6", "digraph-t"),
    "fig7_vs_digraph_w": _variant_figure("Fig 7", "digraph-w"),
    "fig8_preprocessing": Figure(
        "Fig 8: preprocessing time normalized to bulk-sync",
        {"preprocess": lambda r: r.preprocess_time_s},
    ),
    "fig9_breakdown": Figure(
        "Fig 9: execution time breakdown, {algo} (ms)",
        {
            "preproc": lambda r: r.breakdown()["preprocess_s"] * 1e3,
            "compute": lambda r: r.breakdown()["compute_s"] * 1e3,
            "comm": lambda r: r.breakdown()["communication_s"] * 1e3,
        },
        baseline=None, layout="rows",
    ),
    # Paper: 2.25-7.39x for DiGraph, async in between.
    "fig10_speedup": Figure(
        "Fig 10 ({algo}): speedup over bulk-sync",
        {"time": _time_s}, algorithms=ALGOS, layout="speedup",
    ),
    "fig11_updates": Figure(
        "Fig 11 ({algo}): updates normalized to bulk-sync",
        {"updates": _updates}, algorithms=ALGOS,
    ),
    "fig12_traffic": Figure(
        "Fig 12: pagerank traffic volume normalized to bulk-sync",
        {"traffic": lambda r: float(r.traffic_bytes)},
    ),
    "fig13_data_utilization": Figure(
        "Fig 13: loaded-data utilization normalized to bulk-sync",
        {"data_utilization": lambda r: r.data_utilization},
    ),
    "fig15_gpu_utilization": Figure(
        "Fig 15: GPU utilization ratio, pagerank",
        {"gpu_utilization": lambda r: r.gpu_utilization}, baseline=None,
    ),
}

#: The one-feature-off configurations of ``ablation_features``
#: (DESIGN.md section 6): hot-path greediness, merging, proxies,
#: prefetch, advance execution.
FEATURE_CONFIGS = {
    "full": DiGraphConfig(),
    "no-hot-greedy": DiGraphConfig(degree_greedy=False),
    "no-merge": DiGraphConfig(merge_short_paths=False),
    "no-proxy": DiGraphConfig(proxy_in_degree_threshold=10 ** 9),
    "no-prefetch": DiGraphConfig(prefetch=False),
    "advance-2": DiGraphConfig(advance_factor=2),
}


def _configured(config: DiGraphConfig) -> Dict:
    """``run_cell`` arguments for a DiGraph engine built from ``config``."""
    return {"engine_factory": lambda spec: DiGraphEngine(spec, config)}


_DIGRAPH = {"digraph": {"engine_name": "digraph"}}

#: Every line-plot figure and ablation, by experiment name.
SERIES = {
    # Paper: benefits persist as webbase's edges become bi-directional.
    "fig14_bidirectional": Series(
        "Fig 14: pagerank time (ms) vs bi-directional ratio on webbase",
        "ratio", (0.4, 0.6, 0.8, 1.0), "webbase",
        {engine: {"engine_name": engine} for engine in SYSTEMS},
        lambda ratio, base: {
            "graph_name": f"webbase+bidi{ratio}",
            "graph": add_bidirectional_edges(base, ratio, seed=1),
        },
        {"time_ms": _time_ms},
    ),
    # Total (preprocess + processing) time vs CPU worker and GPU count.
    "fig17_cpu_threads": Series(
        "Fig 17: pagerank total time (ms) on webbase vs CPU workers",
        "workers", (1, 2, 4, 8), "webbase",
        {
            f"digraph/{gpus}gpu": {"engine_name": "digraph", "num_gpus": gpus}
            for gpus in (1, 4)
        },
        lambda workers, base: {"n_workers": workers},
        {"total_ms": lambda r: r.total_time_s * 1e3},
    ),
    # D_MAX sweep: traversal depth vs updates/time.
    "ablation_dmax": Series(
        "Ablation: D_MAX on cnr (pagerank)",
        "d_max", (2, 4, 8, 16, 32), "cnr", _DIGRAPH,
        lambda d_max, base: _configured(DiGraphConfig(d_max=d_max)),
        {
            "time_ms": _time_ms,
            "updates": _updates,
            "avg_path_len": lambda r: r.extras["avg_path_length"],
        },
    ),
    "ablation_features": Series(
        "Ablation: feature toggles on cnr (pagerank)",
        "config", tuple(FEATURE_CONFIGS), "cnr", _DIGRAPH,
        lambda label, base: _configured(FEATURE_CONFIGS[label]),
        {
            "time_ms": _time_ms,
            "updates": lambda r: r.vertex_updates,
            "absorbed": lambda r: r.stats.proxy_absorbed,
            "trafficK": lambda r: r.traffic_bytes // 1024,
        },
    ),
}


# ----------------------------------------------------------------------
# The bespoke experiments: sweep-runner reports and artifacts
# ----------------------------------------------------------------------
def _sweep(engines, algos, graphs, scale, mode="run", seed=0, **knobs):
    """The sweep runner's report for a matrix (:mod:`repro.bench.sweep`,
    the code path ``repro sweep`` and the CI gates measure); a knob given
    as a tuple is an axis, any other value a one-point axis."""
    from repro.bench.sweep import SweepConfig, run_sweep

    return run_sweep(
        SweepConfig(
            engines=tuple(engines),
            algorithms=tuple(algos),
            graphs=tuple(graphs),
            scale=scale,
            mode=mode,
            seeds=(seed,),
            knobs={
                name: value if isinstance(value, tuple) else (value,)
                for name, value in knobs.items()
            },
        )
    )


def _cells_by(report: dict, *names: str) -> Dict[tuple, dict]:
    """A sweep report's cells, keyed by the named cell fields or knobs."""
    return {
        tuple(
            cell[name] if name in cell else cell["knobs"][name]
            for name in names
        ): cell
        for cell in report["cells"]
    }


def _mean(cell: dict, metric: str) -> float:
    return cell["metrics"][metric]["mean"]


def fig16_scalability(
    scale: float = DEFAULT_SCALE,
    gpu_counts: Sequence[int] = (1, 2, 3, 4),
    graph_name: str = "webbase",
    algos: Sequence[str] = ("pagerank", "sssp"),
) -> dict:
    """Processing time vs GPU count (paper: DiGraph scales best).

    Runs through the shared sweep runner (:mod:`repro.bench.sweep`) —
    the same code path ``repro sweep`` and the CI regression gate
    measure — with ``num_gpus`` as the swept knob.
    """
    report = _sweep(
        SYSTEMS, algos, (graph_name,), scale, num_gpus=tuple(gpu_counts)
    )
    cells = _cells_by(report, "engine", "algorithm", "num_gpus")
    tables = []
    all_series = {}
    all_efficiency = {}
    for algo in algos:
        series: Dict[str, List[float]] = {
            engine: [
                _mean(cells[engine, algo, num_gpus], "processing_time_s") * 1e3
                for num_gpus in gpu_counts
            ]
            for engine in SYSTEMS
        }
        all_series[algo] = series
        # Scaling behavior relative to the 1-GPU run: values above 1 mean
        # the extra GPUs cost more (staleness) than they pay back at this
        # scale; the engine with the flattest curve scales best.
        efficiency = {
            engine: [t / times[0] for t in times]
            for engine, times in series.items()
        }
        all_efficiency[algo] = efficiency
        tables.append(
            series_table(
                f"Fig 16 ({algo} on {graph_name}): time (ms) vs GPUs",
                "gpus",
                list(gpu_counts),
                series,
            )
        )
        tables.append(
            series_table(
                f"Fig 16 ({algo}): time relative to 1 GPU",
                "gpus",
                list(gpu_counts),
                efficiency,
            )
        )
    return {
        "series": all_series,
        "efficiency": all_efficiency,
        "sweep": report,
        "table": "\n\n".join(tables),
    }


def fig16_faulted_scalability(
    scale: float = DEFAULT_SCALE,
    gpu_counts: Sequence[int] = (2, 3, 4),
    graph_name: str = "webbase",
    algo: str = "pagerank",
    kill_round: int = 1,
    checkpoint_interval: int = 2,
) -> dict:
    """Fig. 16 variant with a mid-run GPU kill (robustness scaling).

    For each GPU count the highest-numbered GPU dies at kernel wave
    ``kill_round``; the run rolls back to the last checkpoint and
    degrades onto the survivors under both redistribution policies.
    Reported per policy: recovered modeled time, degradation relative to
    the fault-free run, and the least-squares slope of that degradation
    against survivor count — the flatter the slope, the more gracefully
    losing one GPU amortizes as the machine grows.
    """
    from repro.faults import FaultPlan, RecoveryPolicy, run_chaos_cell

    graph = load_graph(graph_name, algo, scale)
    policies = ("locality", "edge-balance")
    recovered: Dict[str, List[float]] = {p: [] for p in policies}
    golden: List[float] = []
    passed = True
    for num_gpus in gpu_counts:
        spec = SCALED_MACHINE.scaled(num_gpus)
        plan = FaultPlan.generate(
            0, num_gpus, kill_gpu=num_gpus - 1, kill_at_round=kill_round
        )
        golden_ms = 0.0
        for policy in policies:
            cell = run_chaos_cell(
                graph,
                algo,
                plan,
                engine_name="digraph",
                machine=spec,
                recovery=RecoveryPolicy(
                    checkpoint_interval=checkpoint_interval,
                    redistribution_policy=policy,
                ),
                graph_name=graph_name,
            )
            passed = passed and cell.passed
            recovered[policy].append(cell.recovered_time_s * 1e3)
            golden_ms = cell.golden_time_s * 1e3
        golden.append(golden_ms)
    survivors = [n - 1 for n in gpu_counts]
    degradation = {
        p: [r / g for r, g in zip(recovered[p], golden)] for p in policies
    }
    slopes = {
        p: float(np.polyfit(survivors, degradation[p], 1)[0])
        for p in policies
    }
    series = {"fault-free": golden, **recovered}
    tables = [
        series_table(
            f"Fig 16-faulted ({algo} on {graph_name}): time (ms) vs "
            f"GPUs, one GPU killed at wave {kill_round}",
            "gpus",
            list(gpu_counts),
            series,
        ),
        series_table(
            f"Fig 16-faulted ({algo}): recovered / fault-free time",
            "gpus",
            list(gpu_counts),
            degradation,
        ),
    ]
    return {
        "series": series,
        "degradation": degradation,
        "slopes": slopes,
        "passed": passed,
        "table": "\n\n".join(tables),
    }


def stream_speedup(
    scale: float = DEFAULT_SCALE,
    graphs: Optional[Sequence[str]] = None,
    algos: Sequence[str] = ("pagerank", "sssp", "wcc", "kcore"),
    seed: int = 7,
    **trace_knobs,
) -> dict:
    """Streaming: incremental repair + delta recompute vs full rebuild.

    Replays a seeded mutation trace — small and insert-lean unless
    ``trace_knobs`` (:data:`~repro.graph.generators.TRACE_KNOBS`, by
    name) say otherwise — per (algorithm, graph) cell through a
    :class:`~repro.streaming.session.StreamingSession` with per-batch
    certification, and reports the summed incremental modeled time
    (path repair + warm-started run) against the summed full-rebuild
    time (Algorithm-1 preprocess + cold run on each mutated graph) —
    the evolving-graph scenario the paper's introduction motivates.
    Small insert-dominated batches are the streaming sweet spot: the
    monotone and accumulative programs resume from the prior ``V_val``
    with only a handful of vertices reactivated.

    Runs through the shared sweep runner (:mod:`repro.bench.sweep`) as
    ``mode="stream"`` cells, so the CI regression gate measures the
    exact code path this experiment reports.
    """
    report = _sweep(
        ("digraph",), algos, graphs or GRAPHS, scale, "stream", seed,
        **trace_knobs,
    )
    n_batches, batch_size, mix = (
        trace_knobs.get(row.name, row.default) for row in TRACE_KNOBS
    )
    rows = []
    results: Dict[str, Dict[str, object]] = {}
    for cell in report["cells"]:
        algo = cell["algorithm"]
        graph_name = cell["graph"]
        incr = _mean(cell, "incremental_s")
        rebuild = _mean(cell, "rebuild_s")
        speedup = rebuild / incr if incr > 0 else float("inf")
        certified = cell["certified"]
        modes = list(cell["modes"])
        reactivated = int(_mean(cell, "vertices_reactivated"))
        repaired = int(_mean(cell, "paths_repaired"))
        results.setdefault(algo, {})[graph_name] = {
            "incremental_s": incr,
            "rebuild_s": rebuild,
            "speedup": speedup,
            "reactivated": reactivated,
            "paths_repaired": repaired,
            "modes": modes,
            "certified": certified,
        }
        rows.append(
            [
                algo,
                graph_name,
                "+".join(modes),
                reactivated,
                repaired,
                incr * 1e3,
                rebuild * 1e3,
                speedup,
                "ok" if certified else "FAIL",
            ]
        )
    table = format_table(
        f"Streaming: incremental vs full rebuild "
        f"({n_batches}x{batch_size} {mix} batches, seed={seed})",
        [
            "algo",
            "graph",
            "mode",
            "react",
            "repair",
            "incr_ms",
            "rebuild_ms",
            "speedup",
            "cert",
        ],
        rows,
    )
    return {"results": results, "rows": rows, "sweep": report, "table": table}


def serve_throughput(
    scale: float = DEFAULT_SCALE,
    graph_name: str = "dblp",
    algos: Sequence[str] = ("sssp", "bfs", "ppr", "reachability", "mixed"),
    lane_counts: Sequence[int] = (1, 8),
    num_queries: int = 64,
    tenant_count: int = 4,
    seed: int = 11,
    out_path: Optional[str] = "BENCH_serve.json",
) -> dict:
    """Multi-tenant serving: batched multi-source vs sequential dispatch.

    Serves the same seeded arrival trace per algorithm once per
    ``query_lanes`` value — ``1`` is sequential dispatch (every batch a
    single query), higher values batch same-algorithm queries into one
    multi-source lane-kernel solve.  Point-query frontiers are sparse,
    so service time is kernel-launch dominated and k-lane batching cuts
    launches roughly k-fold; the reported speedup is queries/s at the
    widest lane count over queries/s at 1 lane.  The per-cell serve
    digest covers every query's answer, so the table also certifies
    that batching changed *no* served result
    (``answers_equal``) — the lane-equivalence property, enforced at
    the artifact level.

    Runs through the shared sweep runner as ``mode="serve"`` cells and
    writes the schema-validated sweep artifact (plus a summary block)
    to ``out_path`` — the ``BENCH_serve.json`` the CI serve-gate job
    diffs against its committed baseline.
    """
    lane_counts = sorted(lane_counts)
    report = _sweep(
        ("serve",), algos, (graph_name,), scale, "serve", seed,
        query_lanes=tuple(lane_counts),
        num_queries=num_queries,
        tenant_count=tenant_count,
    )
    cells = _cells_by(report, "algorithm", "query_lanes")
    rows = []
    results: Dict[str, Dict[str, object]] = {}
    for algo in algos:
        base = cells[algo, lane_counts[0]]
        wide = cells[algo, lane_counts[-1]]
        base_qps = _mean(base, "queries_per_s")
        wide_qps = _mean(wide, "queries_per_s")
        speedup = wide_qps / base_qps if base_qps > 0 else 0.0
        answers_equal = all(
            cells[algo, lanes]["digests"] == base["digests"]
            for lanes in lane_counts
        )
        results[algo] = {
            "queries_per_s_sequential": base_qps,
            "queries_per_s_batched": wide_qps,
            "speedup": speedup,
            "latency_p50_s": _mean(wide, "latency_p50_s"),
            "latency_p99_s": _mean(wide, "latency_p99_s"),
            "launches_sequential": _mean(base, "launches"),
            "launches_batched": _mean(wide, "launches"),
            "answers_equal": answers_equal,
        }
        rows.append(
            [
                algo,
                base_qps,
                wide_qps,
                speedup,
                int(_mean(base, "launches")),
                int(_mean(wide, "launches")),
                "ok" if answers_equal else "FAIL",
            ]
        )
    table = format_table(
        f"Serving: {lane_counts[-1]}-lane batching vs sequential dispatch "
        f"({num_queries} queries x {tenant_count} tenants on {graph_name}, "
        f"seed={seed})",
        [
            "algo",
            "qps_seq",
            "qps_batch",
            "speedup",
            "launch_seq",
            "launch_batch",
            "answers",
        ],
        rows,
    )
    report["summary"] = {algo: dict(entry) for algo, entry in results.items()}
    write_artifact_file(report, out_path)
    return {"results": results, "rows": rows, "sweep": report, "table": table}


def overload_resilience(
    scale: float = DEFAULT_SCALE,
    graph_name: str = "dblp",
    algo: str = "mixed",
    num_queries: int = 96,
    tenant_count: int = 4,
    seed: int = 13,
    overload_factor: float = 2.0,
    deadline_ms: float = 1.0,
    max_queue: int = 16,
    out_path: Optional[str] = "BENCH_overload.json",
) -> dict:
    """Overload: deadlines + shedding + brownout vs unbounded collapse.

    Calibrates the server's saturated capacity (every query arriving at
    once; throughput = queries / makespan), then offers the same trace
    at ``overload_factor`` times that rate and serves it three ways:

    - **unprotected** — no overload knobs: every query completes, but
      queue wait grows with the backlog, so the on-time fraction at the
      reference deadline collapses and p99 tracks the makespan;
    - **deadline, no brownout** — late queries are counted (and
      admission-rejected once hopeless), but full-precision solves
      cannot fit the deadline at 2x load: goodput collapses to roughly
      ``1 / overload_factor`` minus queue wait;
    - **deadline + bounded queue + brownout** — the protected
      configuration: load shedding bounds the queue, brownout returns
      partially-converged answers with certified residual bounds, and
      goodput (answered on time) must stay >= 70% of the offered load
      while p99 stays bounded by the deadline.

    The two deadline legs run through the shared sweep runner as
    ``mode="serve"`` cells (so determinism is certified per cell) and
    land in the schema-validated ``BENCH_overload.json`` artifact the
    CI overload-gate diffs against its committed baseline.
    """
    from repro.serve.runner import run_serve_cell

    deadline_s = deadline_ms * 1e-3
    # Capacity calibration: all queries arrive (nearly) at once, so the
    # makespan is pure service time at maximal batching.
    offered = functools.partial(
        run_serve_cell, algo, graph_name, scale=scale, seed=seed,
        num_queries=num_queries, tenant_count=tenant_count, use_cache=False,
    )
    saturated = offered(mean_interarrival_us=1.0)
    capacity_per_s = num_queries / saturated.metrics()["makespan_s"]
    offered_per_s = overload_factor * capacity_per_s
    interarrival_us = 1e6 / offered_per_s

    report = _sweep(
        ("serve",), (algo,), (graph_name,), scale, "serve", seed,
        num_queries=num_queries,
        tenant_count=tenant_count,
        mean_interarrival_us=interarrival_us,
        deadline_ms=deadline_ms,
        max_queue=max_queue,
        brownout=(False, True),
    )
    legs: Dict[str, Dict[str, object]] = {}
    for (brownout,), cell in _cells_by(report, "brownout").items():
        legs["protected" if brownout else "deadline_only"] = {
            "goodput_queries": _mean(cell, "goodput_queries"),
            "goodput_fraction": _mean(cell, "goodput_queries") / num_queries,
            **{
                name: _mean(cell, name)
                for name in (
                    "queries_degraded", "queries_shed", "queries_rejected",
                    "deadline_misses", "latency_p50_s", "latency_p99_s",
                    "residual_bound_max",
                )
            },
            "deterministic": cell["deterministic"],
        }

    # Unprotected leg: same offered load, no overload knobs. Nothing is
    # rejected or counted late, so the on-time fraction is recomputed
    # against the reference deadline from the per-query latencies.
    unprotected = offered(mean_interarrival_us=interarrival_us)
    un_metrics = unprotected.metrics()
    on_time = sum(
        1
        for r in unprotected.results
        if r.status in ("ok", "degraded") and r.latency_s <= deadline_s
    )
    legs["unprotected"] = {
        "goodput_queries": float(on_time),
        "goodput_fraction": on_time / num_queries,
        "on_time_fraction": on_time / num_queries,
        "queries_degraded": un_metrics["queries_degraded"],
        "queries_shed": 0.0,
        "queries_rejected": 0.0,
        "deadline_misses": float(num_queries - on_time),
        "latency_p50_s": un_metrics["latency_p50_s"],
        "latency_p99_s": un_metrics["latency_p99_s"],
        "residual_bound_max": un_metrics["residual_bound_max"],
        "deterministic": True,
    }

    rows = []
    for name in ("unprotected", "deadline_only", "protected"):
        leg = legs[name]
        rows.append(
            [
                name,
                f"{leg['goodput_fraction']:.1%}",
                int(leg["queries_degraded"]),
                int(leg["queries_shed"]),
                int(leg["queries_rejected"]),
                int(leg["deadline_misses"]),
                leg["latency_p99_s"] * 1e3,
            ]
        )
    table = format_table(
        f"Overload resilience at {overload_factor:g}x capacity "
        f"({num_queries} queries on {graph_name}, deadline "
        f"{deadline_ms:g}ms, queue bound {max_queue}, seed={seed})",
        [
            "leg",
            "goodput",
            "degraded",
            "shed",
            "rejected",
            "late",
            "p99_ms",
        ],
        rows,
    )
    summary = {
        "capacity_per_s": capacity_per_s,
        "offered_per_s": offered_per_s,
        "overload_factor": overload_factor,
        "deadline_ms": deadline_ms,
        "max_queue": max_queue,
        "legs": {name: dict(leg) for name, leg in legs.items()},
    }
    report["summary"] = summary
    write_artifact_file(report, out_path)
    return {
        "results": legs,
        "summary": summary,
        "rows": rows,
        "sweep": report,
        "table": table,
    }


def durability_crash_restart(
    scale: float = DEFAULT_SCALE,
    graph_name: str = "cnr",
    algorithms: Sequence[str] = ("pagerank", "wcc"),
    engines: Sequence[str] = ("digraph", "bulk-sync"),
    out_path: Optional[str] = "BENCH_durability.json",
) -> dict:
    """Durable checkpointing: restart certification + overhead.

    Two halves, one ``repro-durability`` artifact:

    - **cells** — the whole-job crash-restart grid
      (:func:`repro.faults.chaos.crash_restart_sweep`): every
      (algorithm, engine, crash point) cell kills the job at a round
      boundary, mid-spill, or mid-manifest-commit, restarts it from the
      durable store, and must match the uninterrupted golden run bit
      for bit, plus one serve-journal restart cell;
    - **overhead** — per engine, the modeled end-to-end time under
      ``durability`` none / durable / durable-verify and the on-disk
      store footprint (raw vs stored bytes; the gap is the cold-page
      compaction the retention window applies).
    """
    import tempfile as _tempfile

    from repro.faults.chaos import crash_restart_sweep
    from repro.faults.recovery import RecoveryPolicy
    from repro.faults.store import CheckpointStore

    graph = load_graph(graph_name, tuple(algorithms)[0], scale)
    cells = []
    for cell in crash_restart_sweep(
        graph,
        algorithms=tuple(algorithms),
        engine_names=tuple(engines),
        graph_name=graph_name,
        include_serve=True,
    ):
        cells.append(
            {
                "algorithm": cell.algorithm,
                "engine": cell.engine,
                "passed": cell.passed,
                "digest_match": cell.digest_match,
                "detail": cell.detail,
                "checkpoints_taken": cell.checkpoints_taken,
                "checkpoint_time_s": cell.checkpoint_time_s,
                "golden_time_s": cell.golden_time_s,
                "recovered_time_s": cell.recovered_time_s,
            }
        )

    overhead: Dict[str, Dict[str, object]] = {}
    overhead_algo = tuple(algorithms)[0]
    for engine_name in engines:
        legs: Dict[str, Dict[str, object]] = {}
        for durability in ("none", "durable", "durable-verify"):
            with _tempfile.TemporaryDirectory(
                prefix="repro-durbench-"
            ) as run_dir:
                policy = RecoveryPolicy(
                    durability=durability,
                    run_dir=run_dir if durability != "none" else "",
                )
                result = run_cell(
                    engine_name, overhead_algo, graph_name,
                    machine=SCALED_MACHINE, graph=graph, recovery=policy,
                )
                leg = {
                    "total_time_s": result.stats.total_time_s,
                    "checkpoint_time_s": result.stats.checkpoint_time_s,
                    "checkpoints_taken": result.stats.checkpoints_taken,
                }
                if durability != "none":
                    payload = CheckpointStore(run_dir).load_manifest()
                    raw = stored = 0
                    for entry in payload["checkpoints"]:
                        pages = list(entry["pages"].values())
                        pages.append(entry["scalars"])
                        for page in pages:
                            raw += int(page["raw_bytes"])
                            stored += int(page["stored_bytes"])
                    leg["store_raw_bytes"] = raw
                    leg["store_stored_bytes"] = stored
                    leg["compaction_ratio"] = (
                        stored / raw if raw else 1.0
                    )
                legs[durability] = leg
        base = legs["none"]["total_time_s"]
        for leg in legs.values():
            leg["store_overhead_fraction"] = (
                (leg["total_time_s"] - base) / base if base else 0.0
            )
        overhead[engine_name] = legs

    rows = []
    for cell in cells:
        rows.append(
            [
                cell["algorithm"],
                cell["engine"],
                "PASS" if cell["passed"] else "FAIL",
                "bit-exact" if cell["digest_match"] else "MISMATCH",
                cell["checkpoints_taken"],
            ]
        )
    table = format_table(
        f"Crash-restart certification on {graph_name} "
        f"(scale={scale:g}; every cell restarts from the durable store)",
        ["cell", "engine", "status", "digests", "ckpts"],
        rows,
    )
    artifact = {
        "schema": "repro-durability",
        "schema_version": 1,
        "config": {
            "graph": graph_name,
            "scale": scale,
            "algorithms": list(algorithms),
            "engines": list(engines),
        },
        "cells": cells,
        "overhead": overhead,
    }
    write_artifact_file(artifact, out_path)
    return {
        "results": cells,
        "overhead": overhead,
        "artifact": artifact,
        "table": table,
    }


# ----------------------------------------------------------------------
# Out-of-core storage scaling (PR 10)
# ----------------------------------------------------------------------
def storage_scaling(
    scale: float = DEFAULT_SCALE,
    policy: str = "affinity",
    seed: int = 17,
    chunk_edges: int = 16_384,
    cache_bytes: int = 1 << 21,
    out_path: Optional[str] = "BENCH_storage.json",
) -> dict:
    """Out-of-core storage: bounded memory + bit-identity certification.

    Three halves, one ``repro-storage`` artifact (``BENCH_storage.json``):

    - **cells** — a ladder of synthetic graphs whose edge count scales
      ~100x while the vertex count scales only ~10x (never materialized
      in RAM: :func:`repro.storage.synthetic_chunk_source` regenerates
      chunks per pass). Each size is streamed through
      :func:`repro.storage.partition_graph` into a shard store with
      ``edges / parts`` held constant, then every page is re-verified
      through a *fixed-size* shard cache; both phases report their
      modeled peak resident bytes. The small sizes also run the
      shard-at-a-time path decomposition (full edge coverage checked).
    - **identity** — on the overlap sizes (small enough to hold in
      RAM), the store's :meth:`~repro.storage.ShardedGraph.materialize`
      must reproduce the in-RAM
      :class:`~repro.graph.builder.GraphBuilder` result **bit for
      bit**, under both partition policies.
    - **scaling** — the certification summary: ``edge_growth`` (~100x),
      ``memory_growth`` (peak resident, partition+scan), and
      ``sublinearity = memory_growth / edge_growth``. ``bounded`` is
      the CI gate: memory must grow strictly sublinearly in edges.
    """
    import hashlib as _hashlib
    import tempfile as _tempfile

    from repro.graph.builder import GraphBuilder
    from repro.storage import (
        ShardedGraph,
        partition_graph,
        synthetic_chunk_source,
    )

    # Edges scale 100x, vertices only 10x, so the O(V) bookkeeping the
    # partitioner is allowed to hold stays far below O(E).
    base_sizes = (
        (2_000, 12_000),
        (5_000, 60_000),
        (10_000, 240_000),
        (20_000, 1_200_000),
    )
    sizes = [
        (max(64, int(n * scale)), max(256, int(m * scale)))
        for n, m in base_sizes
    ]
    per_part_edges = max(1, sizes[0][1])
    identity_sizes = sizes[:2]
    decompose_edge_cap = sizes[1][1]

    def _graph_digest(graph) -> str:
        h = _hashlib.sha256()
        for arr in (graph.indptr, graph.indices, graph.weights):
            arr = np.ascontiguousarray(arr)
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    cells = []
    for n, m in sizes:
        num_parts = max(2, round(m / per_part_edges))
        source = synthetic_chunk_source(
            n, m, seed=seed, chunk_edges=chunk_edges
        )
        with _tempfile.TemporaryDirectory(prefix="repro-storage-") as out_dir:
            report = partition_graph(
                source, num_parts, out_dir, policy=policy, seed=seed
            )
            sharded = ShardedGraph(
                out_dir, max_resident_bytes=cache_bytes
            )
            scan_stats = sharded.scan()
            cell = {
                "num_vertices": report.num_vertices,
                "num_edges": report.num_edges,
                "num_parts": report.num_parts,
                "policy": report.policy,
                "chunk_edges": chunk_edges,
                "edge_cut": report.edge_cut,
                "edge_cut_fraction": report.edge_cut_fraction,
                "clusters": report.clusters,
                "store_bytes": report.store_bytes,
                "partition_peak_resident_bytes": (
                    report.peak_resident_bytes
                ),
                "scan_peak_resident_bytes": (
                    sharded.peak_resident_bytes
                ),
                "peak_resident_bytes": max(
                    report.peak_resident_bytes,
                    sharded.peak_resident_bytes,
                ),
                "shard_loads": scan_stats["shard_loads"],
                "shard_evictions": scan_stats["shard_evictions"],
                "partition_wall_s": report.wall_seconds,
            }
            if m <= decompose_edge_cap:
                decomposition = sharded.decompose_paths()
                cell["num_paths"] = decomposition["num_paths"]
                cell["covered_edges"] = decomposition["covered_edges"]
            cells.append(cell)

    identity = []
    for n, m in identity_sizes:
        source = synthetic_chunk_source(
            n, m, seed=seed, chunk_edges=chunk_edges
        )
        builder = GraphBuilder()
        for src, dst, weight in source():
            builder.add_edge_arrays(src, dst, weight)
        ram_graph = builder.build()
        ram_digest = _graph_digest(ram_graph)
        for identity_policy in ("affinity", "random"):
            with _tempfile.TemporaryDirectory(
                prefix="repro-storage-id-"
            ) as out_dir:
                partition_graph(
                    source,
                    max(2, round(m / per_part_edges)),
                    out_dir,
                    policy=identity_policy,
                    seed=seed,
                )
                store_graph = ShardedGraph(
                    out_dir, max_resident_bytes=cache_bytes
                ).materialize()
                store_digest = _graph_digest(store_graph)
                identity.append(
                    {
                        "num_vertices": n,
                        "num_edges": m,
                        "policy": identity_policy,
                        "digest_ram": ram_digest,
                        "digest_store": store_digest,
                        "identical": store_digest == ram_digest,
                    }
                )

    first, last = cells[0], cells[-1]
    edge_growth = last["num_edges"] / first["num_edges"]
    memory_growth = (
        last["peak_resident_bytes"] / first["peak_resident_bytes"]
        if first["peak_resident_bytes"]
        else 0.0
    )
    scaling = {
        "edge_growth": edge_growth,
        "memory_growth": memory_growth,
        "sublinearity": memory_growth / edge_growth,
        "bounded": memory_growth < edge_growth,
        "all_identical": all(row["identical"] for row in identity),
    }

    rows = []
    for cell in cells:
        rows.append(
            [
                cell["num_vertices"],
                cell["num_edges"],
                cell["num_parts"],
                f"{cell['edge_cut_fraction']:.1%}",
                f"{cell['partition_peak_resident_bytes'] / 1e6:.2f}",
                f"{cell['scan_peak_resident_bytes'] / 1e6:.2f}",
                f"{cell['store_bytes'] / 1e6:.2f}",
            ]
        )
    table = format_table(
        f"Out-of-core storage scaling (policy={policy}, "
        f"edges x{edge_growth:.0f}, peak memory x{memory_growth:.1f}, "
        f"identity={'PASS' if scaling['all_identical'] else 'FAIL'})",
        ["|V|", "|E|", "parts", "cut", "part MB", "scan MB", "store MB"],
        rows,
    )
    artifact = {
        "schema": "repro-storage",
        "schema_version": 1,
        "config": {
            "scale": scale,
            "policy": policy,
            "seed": seed,
            "chunk_edges": chunk_edges,
            "cache_bytes": cache_bytes,
            "sizes": [list(size) for size in sizes],
            "per_part_edges": per_part_edges,
        },
        "cells": cells,
        "identity": identity,
        "scaling": scaling,
    }
    write_artifact_file(artifact, out_path)
    return {
        "results": cells,
        "identity": identity,
        "scaling": scaling,
        "artifact": artifact,
        "table": table,
    }


def _by_name(*functions) -> Dict[str, Callable]:
    return {function.__name__: function for function in functions}


#: Every experiment `repro experiment NAME` can run, by name; a figure
#: or series row is run by its runner.
EXPERIMENTS = {
    **_by_name(table1, fig2_motivation),
    **{n: functools.partial(run_figure, row) for n, row in FIGURES.items()},
    **{n: functools.partial(run_series, row) for n, row in SERIES.items()},
    **_by_name(
        fig16_scalability, fig16_faulted_scalability, stream_speedup,
        serve_throughput, overload_resilience, durability_crash_restart,
        storage_scaling,
    ),
}
