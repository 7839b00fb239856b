"""One experiment per table/figure of the paper's evaluation.

Each function runs the sweep behind the corresponding figure on the
dataset stand-ins and returns a dict with the raw per-cell results plus a
``table`` string shaped like the figure (rows/series the paper plots).
The benchmark suite under ``benchmarks/`` calls these; EXPERIMENTS.md
records paper-vs-measured for each.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.algorithms import PAPER_BENCHMARKS, make_program
from repro.baselines.sequential import sequential_topological_run
from repro.bench.reporting import (
    format_table,
    matrix_table,
    normalized_matrix,
    series_table,
    speedup_matrix,
)
from repro.bench.runner import DEFAULT_SCALE, load_graph, run_cell
from repro.core.engine import DiGraphConfig, DiGraphEngine
from repro.graph import datasets
from repro.graph.generators import add_bidirectional_edges
from repro.graph.scc import scc_statistics
from repro.gpu.config import SCALED_MACHINE

#: Figure order of datasets and benchmark algorithms.
GRAPHS = list(datasets.DATASET_NAMES)
ALGOS = list(PAPER_BENCHMARKS)

#: The three cross-system engines of Figs. 8-13.
SYSTEMS = ("bulk-sync", "async", "digraph")


def _sweep(
    engines: Sequence[str],
    algos: Sequence[str],
    graphs: Sequence[str],
    scale: float,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """results[algo][graph][engine] for a rectangular sweep."""
    out: Dict[str, Dict[str, Dict[str, object]]] = {}
    for algo in algos:
        out[algo] = {}
        for graph in graphs:
            out[algo][graph] = {
                engine: run_cell(engine, algo, graph, scale=scale)
                for engine in engines
            }
    return out


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
# Fig. 6 / Fig. 7 — ablation variants
# ----------------------------------------------------------------------
def fig6_vs_digraph_t(
    scale: float = DEFAULT_SCALE,
    algos: Optional[Sequence[str]] = None,
) -> dict:
    """Normalized processing time: DiGraph vs DiGraph-t."""
    return _variant_figure("digraph-t", scale, algos, "Fig 6")


def fig7_vs_digraph_w(
    scale: float = DEFAULT_SCALE,
    algos: Optional[Sequence[str]] = None,
) -> dict:
    """Normalized processing time: DiGraph vs DiGraph-w."""
    return _variant_figure("digraph-w", scale, algos, "Fig 7")


def _variant_figure(variant, scale, algos, label) -> dict:
    algos = list(algos or ALGOS)
    sweep = _sweep(("digraph", variant), algos, GRAPHS, scale)
    tables = []
    matrices = {}
    update_matrices = {}
    for algo in algos:
        matrix = normalized_matrix(
            sweep[algo], lambda r: r.processing_time_s, baseline=variant
        )
        matrices[algo] = matrix
        tables.append(
            matrix_table(
                f"{label} ({algo}): time normalized to {variant}",
                matrix,
                ("digraph", variant),
            )
        )
        updates = normalized_matrix(
            sweep[algo],
            lambda r: float(r.vertex_updates),
            baseline=variant,
        )
        update_matrices[algo] = updates
        tables.append(
            matrix_table(
                f"{label} ({algo}): updates normalized to {variant}",
                updates,
                ("digraph", variant),
            )
        )
    return {
        "sweep": sweep,
        "matrices": matrices,
        "update_matrices": update_matrices,
        "table": "\n\n".join(tables),
    }


# ----------------------------------------------------------------------
# Fig. 8 — preprocessing time
# ----------------------------------------------------------------------
def fig8_preprocessing(scale: float = DEFAULT_SCALE) -> dict:
    """Preprocessing time normalized to the bulk-sync (Gunrock) baseline."""
    per_graph = {
        graph: {
            engine: run_cell(engine, "pagerank", graph, scale=scale)
            for engine in SYSTEMS
        }
        for graph in GRAPHS
    }
    matrix = normalized_matrix(
        per_graph, lambda r: r.preprocess_time_s, baseline="bulk-sync"
    )
    table = matrix_table(
        "Fig 8: preprocessing time normalized to bulk-sync", matrix, SYSTEMS
    )
    return {"results": per_graph, "matrix": matrix, "table": table}


# ----------------------------------------------------------------------
# Fig. 9 — execution time breakdown
# ----------------------------------------------------------------------
def fig9_breakdown(
    scale: float = DEFAULT_SCALE, algo: str = "pagerank"
) -> dict:
    """Preprocess / compute / communication breakdown per engine."""
    rows = []
    results = {}
    for graph in GRAPHS:
        results[graph] = {}
        for engine in SYSTEMS:
            result = run_cell(engine, algo, graph, scale=scale)
            results[graph][engine] = result
            breakdown = result.breakdown()
            rows.append(
                [
                    graph,
                    engine,
                    breakdown["preprocess_s"] * 1e3,
                    breakdown["compute_s"] * 1e3,
                    breakdown["communication_s"] * 1e3,
                ]
            )
    table = format_table(
        f"Fig 9: execution time breakdown, {algo} (ms)",
        ["graph", "engine", "preproc", "compute", "comm"],
        rows,
    )
    return {"results": results, "rows": rows, "table": table}


# ----------------------------------------------------------------------
# Fig. 10 / Fig. 11 — speedups and update counts
# ----------------------------------------------------------------------
def fig10_speedup(
    scale: float = DEFAULT_SCALE,
    algos: Optional[Sequence[str]] = None,
) -> dict:
    """Speedup over the bulk-sync baseline (paper: 2.25-7.39x for
    DiGraph, async in between)."""
    algos = list(algos or ALGOS)
    sweep = _sweep(SYSTEMS, algos, GRAPHS, scale)
    tables = []
    matrices = {}
    for algo in algos:
        matrix = speedup_matrix(sweep[algo], baseline="bulk-sync")
        matrices[algo] = matrix
        tables.append(
            matrix_table(
                f"Fig 10 ({algo}): speedup over bulk-sync", matrix, SYSTEMS
            )
        )
    return {"sweep": sweep, "matrices": matrices, "table": "\n\n".join(tables)}


def fig11_updates(
    scale: float = DEFAULT_SCALE,
    algos: Optional[Sequence[str]] = None,
) -> dict:
    """Vertex-update counts normalized to bulk-sync."""
    algos = list(algos or ALGOS)
    sweep = _sweep(SYSTEMS, algos, GRAPHS, scale)
    tables = []
    matrices = {}
    for algo in algos:
        matrix = normalized_matrix(
            sweep[algo], lambda r: float(r.vertex_updates), baseline="bulk-sync"
        )
        matrices[algo] = matrix
        tables.append(
            matrix_table(
                f"Fig 11 ({algo}): updates normalized to bulk-sync",
                matrix,
                SYSTEMS,
            )
        )
    return {"sweep": sweep, "matrices": matrices, "table": "\n\n".join(tables)}


# ----------------------------------------------------------------------
# Fig. 12 / 13 / 15 — pagerank traffic, data utilization, GPU utilization
# ----------------------------------------------------------------------
def fig12_traffic(scale: float = DEFAULT_SCALE) -> dict:
    per_graph = {
        graph: {
            engine: run_cell(engine, "pagerank", graph, scale=scale)
            for engine in SYSTEMS
        }
        for graph in GRAPHS
    }
    matrix = normalized_matrix(
        per_graph, lambda r: float(r.traffic_bytes), baseline="bulk-sync"
    )
    table = matrix_table(
        "Fig 12: pagerank traffic volume normalized to bulk-sync",
        matrix,
        SYSTEMS,
    )
    return {"results": per_graph, "matrix": matrix, "table": table}


def fig13_data_utilization(scale: float = DEFAULT_SCALE) -> dict:
    per_graph = {
        graph: {
            engine: run_cell(engine, "pagerank", graph, scale=scale)
            for engine in SYSTEMS
        }
        for graph in GRAPHS
    }
    matrix = normalized_matrix(
        per_graph, lambda r: r.data_utilization, baseline="bulk-sync"
    )
    table = matrix_table(
        "Fig 13: loaded-data utilization normalized to bulk-sync",
        matrix,
        SYSTEMS,
    )
    return {"results": per_graph, "matrix": matrix, "table": table}


def fig15_gpu_utilization(scale: float = DEFAULT_SCALE) -> dict:
    rows = []
    results = {}
    for graph in GRAPHS:
        results[graph] = {}
        row = [graph]
        for engine in SYSTEMS:
            result = run_cell(engine, "pagerank", graph, scale=scale)
            results[graph][engine] = result
            row.append(result.gpu_utilization)
        rows.append(row)
    table = format_table(
        "Fig 15: GPU utilization ratio, pagerank",
        ["graph"] + list(SYSTEMS),
        rows,
    )
    return {"results": results, "rows": rows, "table": table}


# ----------------------------------------------------------------------
# Fig. 14 — bi-directional edge sweep
# ----------------------------------------------------------------------
def fig14_bidirectional(
    scale: float = DEFAULT_SCALE,
    ratios: Sequence[float] = (0.4, 0.6, 0.8, 1.0),
    graph_name: str = "webbase",
) -> dict:
    """pagerank time as webbase's bi-directional edge ratio grows."""
    base = load_graph(graph_name, "pagerank", scale)
    series: Dict[str, List[float]] = {e: [] for e in SYSTEMS}
    results = {}
    for ratio in ratios:
        graph = add_bidirectional_edges(base, ratio, seed=1)
        results[ratio] = {}
        for engine in SYSTEMS:
            result = run_cell(
                engine,
                "pagerank",
                f"{graph_name}+bidi{ratio}",
                scale=scale,
                graph=graph,
            )
            results[ratio][engine] = result
            series[engine].append(result.processing_time_s * 1e3)
    table = series_table(
        f"Fig 14: pagerank time (ms) vs bi-directional ratio on {graph_name}",
        "ratio",
        list(ratios),
        series,
    )
    return {"results": results, "series": series, "table": table}


# ----------------------------------------------------------------------
# Fig. 16 / 17 — scalability sweeps
# ----------------------------------------------------------------------
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
    from repro.bench.sweep import SweepConfig, run_sweep

    report = run_sweep(
        SweepConfig(
            engines=tuple(SYSTEMS),
            algorithms=tuple(algos),
            graphs=(graph_name,),
            scale=scale,
            knobs={"num_gpus": tuple(gpu_counts)},
        )
    )
    time_ms = {
        (cell["engine"], cell["algorithm"], cell["knobs"]["num_gpus"]):
            cell["metrics"]["processing_time_s"]["mean"] * 1e3
        for cell in report["cells"]
    }
    tables = []
    all_series = {}
    all_efficiency = {}
    for algo in algos:
        series: Dict[str, List[float]] = {
            engine: [
                time_ms[(engine, algo, num_gpus)]
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


def fig17_cpu_threads(
    scale: float = DEFAULT_SCALE,
    worker_counts: Sequence[int] = (1, 2, 4, 8),
    gpu_counts: Sequence[int] = (1, 4),
    graph_name: str = "webbase",
) -> dict:
    """Total (preprocess + processing) pagerank time vs CPU worker count
    and GPU count."""
    series: Dict[str, List[float]] = {}
    for num_gpus in gpu_counts:
        key = f"digraph/{num_gpus}gpu"
        series[key] = []
        for workers in worker_counts:
            result = run_cell(
                "digraph",
                "pagerank",
                graph_name,
                scale=scale,
                num_gpus=num_gpus,
                n_workers=workers,
            )
            series[key].append(result.total_time_s * 1e3)
    table = series_table(
        f"Fig 17: pagerank total time (ms) on {graph_name} "
        "vs CPU workers",
        "workers",
        list(worker_counts),
        series,
    )
    return {"series": series, "table": table}


# ----------------------------------------------------------------------
# Ablations beyond the paper's own (DESIGN.md section 6)
# ----------------------------------------------------------------------
def ablation_dmax(
    scale: float = DEFAULT_SCALE,
    values: Sequence[int] = (2, 4, 8, 16, 32),
    graph_name: str = "cnr",
) -> dict:
    """D_MAX sweep: traversal depth vs updates/time."""
    series = {"time_ms": [], "updates": [], "avg_path_len": []}
    for d_max in values:
        result = run_cell(
            "digraph",
            "pagerank",
            graph_name,
            scale=scale,
            engine_factory=lambda spec, d=d_max: DiGraphEngine(
                spec, DiGraphConfig(d_max=d)
            ),
        )
        series["time_ms"].append(result.processing_time_s * 1e3)
        series["updates"].append(float(result.vertex_updates))
        series["avg_path_len"].append(result.extras["avg_path_length"])
    table = series_table(
        f"Ablation: D_MAX on {graph_name} (pagerank)",
        "d_max",
        list(values),
        series,
    )
    return {"series": series, "table": table}


def ablation_features(
    scale: float = DEFAULT_SCALE, graph_name: str = "cnr"
) -> dict:
    """One-feature-off ablations: hot-path greediness, merging, proxies,
    prefetch, advance execution."""
    configs = {
        "full": DiGraphConfig(),
        "no-hot-greedy": DiGraphConfig(degree_greedy=False),
        "no-merge": DiGraphConfig(merge_short_paths=False),
        "no-proxy": DiGraphConfig(proxy_in_degree_threshold=10 ** 9),
        "no-prefetch": DiGraphConfig(prefetch=False),
        "advance-2": DiGraphConfig(advance_factor=2),
    }
    rows = []
    results = {}
    for label, config in configs.items():
        result = run_cell(
            "digraph",
            "pagerank",
            graph_name,
            scale=scale,
            engine_factory=lambda spec, c=config: DiGraphEngine(spec, c),
        )
        results[label] = result
        rows.append(
            [
                label,
                result.processing_time_s * 1e3,
                result.vertex_updates,
                result.stats.proxy_absorbed,
                result.traffic_bytes // 1024,
            ]
        )
    table = format_table(
        f"Ablation: feature toggles on {graph_name} (pagerank)",
        ["config", "time_ms", "updates", "absorbed", "trafficK"],
        rows,
    )
    return {"results": results, "rows": rows, "table": table}


def stream_speedup(
    scale: float = DEFAULT_SCALE,
    graphs: Optional[Sequence[str]] = None,
    algos: Sequence[str] = ("pagerank", "sssp", "wcc", "kcore"),
    n_batches: int = 3,
    batch_size: int = 4,
    seed: int = 7,
) -> dict:
    """Streaming: incremental repair + delta recompute vs full rebuild.

    Replays a seeded small-batch insert-lean mutation trace per
    (algorithm, graph) cell through a
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
    from repro.bench.sweep import SweepConfig, run_sweep

    graph_names = list(graphs) if graphs else GRAPHS
    report = run_sweep(
        SweepConfig(
            engines=("digraph",),
            algorithms=tuple(algos),
            graphs=tuple(graph_names),
            scale=scale,
            mode="stream",
            seeds=(seed,),
            knobs={
                "stream_batches": (n_batches,),
                "stream_batch_size": (batch_size,),
                "stream_mix": ("insert",),
            },
        )
    )
    rows = []
    results: Dict[str, Dict[str, object]] = {}
    for cell in report["cells"]:
        algo = cell["algorithm"]
        graph_name = cell["graph"]
        metrics = cell["metrics"]
        incr = metrics["incremental_s"]["mean"]
        rebuild = metrics["rebuild_s"]["mean"]
        speedup = rebuild / incr if incr > 0 else float("inf")
        certified = cell["certified"]
        modes = list(cell["modes"])
        reactivated = int(metrics["vertices_reactivated"]["mean"])
        repaired = int(metrics["paths_repaired"]["mean"])
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
        f"({n_batches}x{batch_size} insert batches, seed={seed})",
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
    from repro.bench.schema import validate_artifact
    from repro.bench.sweep import SweepConfig, run_sweep, write_artifact

    lane_counts = sorted(lane_counts)
    report = run_sweep(
        SweepConfig(
            engines=("serve",),
            algorithms=tuple(algos),
            graphs=(graph_name,),
            scale=scale,
            mode="serve",
            seeds=(seed,),
            knobs={
                "query_lanes": tuple(lane_counts),
                "num_queries": (num_queries,),
                "tenant_count": (tenant_count,),
            },
        )
    )
    by_algo: Dict[str, Dict[int, Dict[str, object]]] = {}
    for cell in report["cells"]:
        by_algo.setdefault(cell["algorithm"], {})[
            int(cell["knobs"]["query_lanes"])
        ] = cell
    rows = []
    results: Dict[str, Dict[str, object]] = {}
    for algo in algos:
        cells = by_algo[algo]
        base = cells[lane_counts[0]]
        wide = cells[lane_counts[-1]]
        base_qps = base["metrics"]["queries_per_s"]["mean"]
        wide_qps = wide["metrics"]["queries_per_s"]["mean"]
        speedup = wide_qps / base_qps if base_qps > 0 else 0.0
        answers_equal = all(
            cells[lanes]["digests"] == base["digests"]
            for lanes in lane_counts
        )
        results[algo] = {
            "queries_per_s_sequential": base_qps,
            "queries_per_s_batched": wide_qps,
            "speedup": speedup,
            "latency_p50_s": wide["metrics"]["latency_p50_s"]["mean"],
            "latency_p99_s": wide["metrics"]["latency_p99_s"]["mean"],
            "launches_sequential": base["metrics"]["launches"]["mean"],
            "launches_batched": wide["metrics"]["launches"]["mean"],
            "answers_equal": answers_equal,
        }
        rows.append(
            [
                algo,
                base_qps,
                wide_qps,
                speedup,
                int(base["metrics"]["launches"]["mean"]),
                int(wide["metrics"]["launches"]["mean"]),
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
    if out_path is not None:
        validate_artifact(report, kind="repro-sweep", path=out_path)
        write_artifact(report, out_path)
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
    from repro.bench.schema import validate_artifact
    from repro.bench.sweep import SweepConfig, run_sweep, write_artifact
    from repro.serve.runner import run_serve_cell

    deadline_s = deadline_ms * 1e-3
    # Capacity calibration: all queries arrive (nearly) at once, so the
    # makespan is pure service time at maximal batching.
    saturated = run_serve_cell(
        algo, graph_name, scale=scale, seed=seed,
        num_queries=num_queries, tenant_count=tenant_count,
        mean_interarrival_us=1.0, use_cache=False,
    )
    capacity_per_s = num_queries / saturated.metrics()["makespan_s"]
    offered_per_s = overload_factor * capacity_per_s
    interarrival_us = 1e6 / offered_per_s

    report = run_sweep(
        SweepConfig(
            engines=("serve",),
            algorithms=(algo,),
            graphs=(graph_name,),
            scale=scale,
            mode="serve",
            seeds=(seed,),
            knobs={
                "num_queries": (num_queries,),
                "tenant_count": (tenant_count,),
                "mean_interarrival_us": (interarrival_us,),
                "deadline_ms": (deadline_ms,),
                "max_queue": (max_queue,),
                "brownout": (False, True),
            },
        )
    )
    legs: Dict[str, Dict[str, object]] = {}
    for cell in report["cells"]:
        key = "protected" if cell["knobs"]["brownout"] else "deadline_only"
        metrics = cell["metrics"]
        legs[key] = {
            "goodput_queries": metrics["goodput_queries"]["mean"],
            "goodput_fraction": (
                metrics["goodput_queries"]["mean"] / num_queries
            ),
            "queries_degraded": metrics["queries_degraded"]["mean"],
            "queries_shed": metrics["queries_shed"]["mean"],
            "queries_rejected": metrics["queries_rejected"]["mean"],
            "deadline_misses": metrics["deadline_misses"]["mean"],
            "latency_p50_s": metrics["latency_p50_s"]["mean"],
            "latency_p99_s": metrics["latency_p99_s"]["mean"],
            "residual_bound_max": metrics["residual_bound_max"]["mean"],
            "deterministic": cell["deterministic"],
        }

    # Unprotected leg: same offered load, no overload knobs. Nothing is
    # rejected or counted late, so the on-time fraction is recomputed
    # against the reference deadline from the per-query latencies.
    unprotected = run_serve_cell(
        algo, graph_name, scale=scale, seed=seed,
        num_queries=num_queries, tenant_count=tenant_count,
        mean_interarrival_us=interarrival_us, use_cache=False,
    )
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
    if out_path is not None:
        validate_artifact(report, kind="repro-sweep", path=out_path)
        write_artifact(report, out_path)
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
    import json as _json
    import os as _os
    import shutil as _shutil
    import tempfile as _tempfile

    from repro.bench.schema import validate_artifact
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
            run_dir = _tempfile.mkdtemp(prefix="repro-durbench-")
            try:
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
            finally:
                _shutil.rmtree(run_dir, ignore_errors=True)
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
    validate_artifact(
        artifact, kind="repro-durability", path=out_path or "<artifact>"
    )
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            _json.dump(artifact, fh, indent=1, sort_keys=True)
            fh.write("\n")
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
    import json as _json
    import shutil as _shutil
    import tempfile as _tempfile

    from repro.bench.schema import validate_artifact
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
        out_dir = _tempfile.mkdtemp(prefix="repro-storage-")
        try:
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
        finally:
            _shutil.rmtree(out_dir, ignore_errors=True)

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
            out_dir = _tempfile.mkdtemp(prefix="repro-storage-id-")
            try:
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
            finally:
                _shutil.rmtree(out_dir, ignore_errors=True)

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
    validate_artifact(
        artifact, kind="repro-storage", path=out_path or "<artifact>"
    )
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            _json.dump(artifact, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return {
        "results": cells,
        "identity": identity,
        "scaling": scaling,
        "artifact": artifact,
        "table": table,
    }


#: Every experiment `repro experiment NAME` can run. Each takes
#: ``scale=`` and returns a dict with a printable ``table``.
EXPERIMENTS = {
    function.__name__: function
    for function in (
        table1, fig2_motivation, fig6_vs_digraph_t, fig7_vs_digraph_w,
        fig8_preprocessing, fig9_breakdown, fig10_speedup, fig11_updates,
        fig12_traffic, fig13_data_utilization, fig14_bidirectional,
        fig15_gpu_utilization, fig16_scalability, fig16_faulted_scalability,
        fig17_cpu_threads, ablation_dmax, ablation_features,
        stream_speedup, serve_throughput, overload_resilience,
        durability_crash_restart, storage_scaling,
    )
}
