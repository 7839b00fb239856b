"""Command-line interface: ``python -m repro ...``.

Subcommands:

- ``run`` — execute one algorithm on one engine over a built-in dataset
  stand-in or an edge-list file, and print the result summary;
- ``compare`` — run all engines on one workload and print the comparison
  rows (the Fig. 10/11 view for a single cell);
- ``datasets`` — print the Table-1 properties of the stand-ins;
- ``experiment`` — regenerate one paper figure's table by name;
- ``kernels-bench`` — time scalar vs vectorized vertex updates, write
  ``BENCH_kernels.json``, and exit 1 unless both reach the same states;
- ``verify`` — run the invariant-checking conformance battery
  (:mod:`repro.verify`) over a workload or the canonical fixtures;
- ``chaos`` — sweep algorithms x engines under a seeded fault plan and
  certify recovered runs against the fault-free golden state
  (:mod:`repro.faults`);
- ``stream`` — replay a seeded mutation trace through the streaming
  subsystem (:mod:`repro.streaming`): incremental path repair + delta
  recompute per batch, with per-batch certification against a
  from-scratch golden run and incremental-vs-rebuild modeled time;
- ``sweep`` — run a declarative benchmark matrix (engines x algorithms
  x graphs x knobs, repeated seeded runs) through
  :mod:`repro.bench.sweep`, write a versioned ``BENCH_sweep.json``
  artifact, and optionally gate it against a committed baseline
  (``--gate BASELINE.json --tolerance 0.15`` exits 1 on regression);
- ``serve`` — serve a deterministic multi-tenant point-query trace
  (:mod:`repro.serve`) over one shared preprocessed graph, batching
  same-algorithm queries into multi-source lane kernels;
  ``--strict`` certifies every served answer bit-identical to an
  independent single-source golden run and exits 1 on any mismatch.

Any :class:`~repro.errors.ReproError` raised by a subcommand is printed
as a one-line ``error: ...`` on stderr with exit status 1; pass
``--debug`` to get the full traceback instead.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.algorithms import ALGORITHMS
from repro.bench.runner import (
    ALL_CHAOS_ENGINES,
    ALL_ENGINE_NAMES,
    ENGINE_NAMES,
    run_cell,
)
from repro.errors import ReproError, VerificationError
from repro.graph import datasets
from repro.graph.generators import TRACE_KNOBS
from repro.graph.io import read_edge_list
from repro.gpu.config import SCALED_MACHINE
from repro.knobs import add_flags, field_values, from_args, knobs_of


def _open_graph_dir(args):
    """Open ``--graph-dir`` as a :class:`~repro.storage.ShardedGraph`."""
    from repro.storage import ShardedGraph

    return ShardedGraph(
        args.graph_dir, max_resident_bytes=args.graph_cache_bytes
    )


def _machine(args):
    """The simulated machine, with ``--gpus`` applied."""
    return SCALED_MACHINE.scaled(args.gpus) if args.gpus else SCALED_MACHINE


def _workload(args, sharded=None):
    """``(graph, name, machine)`` of a subcommand: the graph its
    workload flags select (an open ``--graph-dir`` store, an
    ``--edge-list`` file, else the ``--dataset`` stand-in — weighted
    when the subcommand's one ``--algorithm`` is sssp), the name results
    are labelled with, and the machine it runs on."""
    if sharded is not None:
        graph, name = sharded.materialize(), args.graph_dir
    elif args.edge_list:
        graph, name = read_edge_list(args.edge_list), args.edge_list
    else:
        weighted = getattr(args, "algorithm", None) == "sssp"
        graph = datasets.load(
            args.dataset, scale=args.scale, weighted=weighted
        )
        name = args.dataset
    return graph, name, _machine(args)


def _add_workload_args(
    parser: argparse.ArgumentParser,
    scale: float,
    dataset: Optional[str] = "cnr",
    edge_list: bool = True,
    algorithms: str = "",
) -> None:
    """The workload flags six subcommands share; ``algorithms`` is the
    verb of a subcommand that takes a list of them."""
    parser.add_argument(
        "--dataset",
        choices=datasets.DATASET_NAMES,
        default=dataset,
        help=(
            f"built-in dataset stand-in (default: {dataset})"
            if dataset
            else "dataset stand-in to verify (default: canonical fixtures)"
        ),
    )
    if edge_list:
        parser.add_argument(
            "--edge-list",
            help="path to a 'src dst [weight]' file (overrides --dataset)",
        )
    parser.add_argument(
        "--scale", type=float, default=scale, help="dataset scale factor"
    )
    parser.add_argument(
        "--gpus", type=int, default=None, help="override simulated GPU count"
    )
    if algorithms:
        parser.add_argument(
            "--algorithms",
            nargs="+",
            choices=ALGORITHMS,
            default=list(ALGORITHMS),
            help=f"algorithms to {algorithms} (default: all eight)",
        )


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """`repro run` / `repro compare`: one workload, one algorithm."""
    _add_workload_args(parser, scale=1.0)
    parser.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="pagerank",
        help="vertex program to run (default: pagerank)",
    )


#: The :class:`~repro.faults.recovery.RecoveryPolicy` knobs `repro run`
#: and `repro chaos` expose as flags.
_RUN_POLICY = (
    "durability", "run_dir", "store_retain", "store_compact",
    "checkpoint_interval", "incremental_checkpoints",
)
_CHAOS_POLICY = (
    "overlap_checkpoint_spill", "checkpoint_interval",
    "incremental_checkpoints", "full_checkpoint_period", "redistribution",
)


def _recovery_policy(args, names):
    """The policy a subcommand's checkpoint flags describe."""
    from repro.faults.recovery import RecoveryPolicy

    knobs = from_args(args, knobs_of(RecoveryPolicy, *names))
    (fields,) = field_values(knobs, RecoveryPolicy)
    return RecoveryPolicy(**fields)


def _serve_rows():
    """Every serve-cell knob that is a `repro serve` flag."""
    from repro.serve.query import TraceSpec
    from repro.serve.runner import KILL_LAUNCH
    from repro.serve.server import ServeConfig

    rows = (*knobs_of(TraceSpec), *knobs_of(ServeConfig), KILL_LAUNCH)
    return [row for row in rows if row.flag]


def _durable_run_policy(args):
    """Build the durable :class:`RecoveryPolicy` for ``repro run`` and
    commit the run header (the workload metadata ``repro resume``
    rebuilds the job from)."""
    from dataclasses import asdict

    from repro.errors import ConfigurationError
    from repro.faults.store import CheckpointStore

    if not args.run_dir:
        raise ConfigurationError(
            f"--durability {args.durability} requires --run-dir"
        )
    if args.edge_list and not args.graph_dir:
        raise ConfigurationError(
            "--durability requires a named --dataset or a --graph-dir "
            "store (an --edge-list workload cannot be rebuilt by "
            "`repro resume`)"
        )
    policy = _recovery_policy(args, _RUN_POLICY)
    header_policy = {
        k: v for k, v in asdict(policy).items() if k != "run_dir"
    }
    CheckpointStore(
        args.run_dir, retain=policy.store_retain,
        compact=policy.store_compact,
    ).write_header(
        {
            "mode": "engine",
            "engine": args.engine,
            "vectorized": bool(args.vectorized),
            "algorithm": args.algorithm,
            "dataset": args.dataset,
            "scale": args.scale,
            "gpus": args.gpus,
            "graph_dir": args.graph_dir or None,
            "policy": header_policy,
        }
    )
    return policy


def cmd_run(args) -> int:
    sharded = _open_graph_dir(args) if args.graph_dir else None
    graph, name, spec = _workload(args, sharded)
    recovery = None
    if args.durability != "none":
        recovery = _durable_run_policy(args)
    result = run_cell(
        args.engine,
        args.algorithm,
        name,
        machine=spec,
        graph=graph,
        vectorized=args.vectorized,
        recovery=recovery,
    )
    print(result.summary())
    if sharded is not None:
        print(
            f"graph-dir: {sharded.num_parts} shard(s), "
            f"peak_resident_bytes={sharded.peak_resident_bytes}"
        )
    breakdown = result.breakdown()
    print(
        f"breakdown: preprocess={breakdown['preprocess_s'] * 1e3:.3f}ms "
        f"compute={breakdown['compute_s'] * 1e3:.3f}ms "
        f"communication={breakdown['communication_s'] * 1e3:.3f}ms"
    )
    if args.trace:
        from repro.bench.trace import round_trace_summary

        print(round_trace_summary(result))
    return 0


def cmd_resume(args) -> int:
    from repro.faults.chaos import resume_run

    result = resume_run(args.run_dir, gpus=args.gpus)
    if args.gpus:
        print(f"resumed from {args.run_dir} onto {args.gpus} GPU(s)")
    else:
        print(f"resumed from {args.run_dir}")
    print(result.summary())
    return 0


def cmd_partition(args) -> int:
    from repro.graph.io import edge_list_chunk_source
    from repro.storage import (
        graph_chunk_source,
        partition_graph,
        synthetic_chunk_source,
    )

    if args.synthetic:
        from repro.errors import ConfigurationError

        try:
            v, e = (int(x) for x in args.synthetic.split(","))
        except ValueError:
            raise ConfigurationError(
                f"--synthetic expects 'VERTICES,EDGES', got "
                f"{args.synthetic!r}"
            ) from None
        source = synthetic_chunk_source(
            v, e, seed=args.seed, chunk_edges=args.chunk_edges
        )
    elif args.edge_list:
        source = edge_list_chunk_source(
            args.edge_list, chunk_edges=args.chunk_edges
        )
    elif getattr(args, "npz", None):
        from repro.graph.io import npz_chunk_source

        source = npz_chunk_source(args.npz, chunk_edges=args.chunk_edges)
    else:
        graph = datasets.load(
            args.dataset, scale=args.scale, weighted=args.weighted
        )
        source = graph_chunk_source(graph, chunk_edges=args.chunk_edges)
    report = partition_graph(
        source,
        args.num_parts,
        args.out_dir,
        policy=args.policy,
        seed=args.seed,
    )
    print(report.summary())
    print(
        f"parts: vertices={report.part_num_vertices} "
        f"edges={report.part_num_edges}"
    )
    return 0


def cmd_scrub(args) -> int:
    from repro.faults.store import CheckpointStore

    report = CheckpointStore(args.run_dir).scrub(repair=args.repair)
    print(
        f"{args.run_dir}: {len(report.intact_rounds)} intact "
        f"checkpoint(s) {report.intact_rounds}, "
        f"{len(report.findings)} finding(s)"
    )
    for finding in report.findings:
        print(f"  {finding.kind}: {finding}", file=sys.stderr)
    if report.repaired:
        print(
            f"repaired: dropped round(s) {report.dropped_rounds}, "
            "manifest recommitted"
        )
    if report.clean or report.repaired:
        return 0
    return 1


def cmd_compare(args) -> int:
    graph, name, spec = _workload(args)
    baseline_time = None
    for engine_name in ENGINE_NAMES:
        result = run_cell(
            engine_name, args.algorithm, name, machine=spec, graph=graph
        )
        if baseline_time is None:
            baseline_time = result.processing_time_s
        speedup = baseline_time / result.processing_time_s
        print(f"{result.summary()}  speedup=x{speedup:5.2f}")
    return 0


def cmd_datasets(args) -> int:
    print(f"{'dataset':<10}{'#V':>10}{'#E':>12}{'A_Deg':>8}{'A_Dis':>8}")
    for props in datasets.table1(scale=args.scale):
        print(props.as_row())
    return 0


def cmd_kernels_bench(args) -> int:
    from repro.bench.runner import run_kernel_microbench

    report = run_kernel_microbench(
        num_vertices=args.vertices,
        num_edges=args.edges,
        seed=args.seed,
        algos=tuple(args.algorithms),
        out_path=args.output,
    )
    print(
        f"{'algorithm':<12}{'scalar s':>10}{'vector s':>10}"
        f"{'speedup':>9}{'equal':>7}"
    )
    for row in report["results"]:
        print(
            f"{row['algorithm']:<12}"
            f"{row['scalar']['wall_seconds']:>10.2f}"
            f"{row['vectorized']['wall_seconds']:>10.2f}"
            f"{row['speedup']:>8.1f}x"
            f"{'yes' if row['states_equal'] else 'NO':>7}"
        )
    if args.output:
        print(f"wrote {args.output}")
    unequal = [
        row["algorithm"]
        for row in report["results"]
        if not row["states_equal"]
    ]
    if unequal:
        raise VerificationError(
            "scalar and vectorized states differ for "
            + ", ".join(unequal)
        )
    return 0


def cmd_verify(args) -> int:
    from repro.verify.fixtures import CANONICAL_GRAPHS
    from repro.verify.harness import verify_graph

    spec = _machine(args)
    if args.edge_list or args.dataset:
        graph, name, _ = _workload(args)
        workloads = [(name, graph)]
    else:
        workloads = [
            (name, builder())
            for name, builder in CANONICAL_GRAPHS.items()
        ]

    unknown = set(args.engines) - set(ALL_ENGINE_NAMES)
    if unknown:
        print(f"unknown engine(s): {sorted(unknown)}", file=sys.stderr)
        return 2

    all_passed = True
    for name, graph in workloads:
        report = verify_graph(
            graph,
            graph_name=name,
            algorithms=tuple(args.algorithms),
            engine_names=tuple(args.engines),
            machine=spec,
            skip_metamorphic=args.skip_metamorphic,
            seed=args.seed,
        )
        all_passed = all_passed and report.passed
        status = "PASS" if report.passed else "FAIL"
        print(f"{name}: {status} ({len(report.results)} checks)")
        shown = report.failures if not args.verbose else report.results
        for result in shown:
            print(f"  {result}")
    return 0 if all_passed else 1


def cmd_chaos(args) -> int:
    from repro.faults import chaos_sweep

    graph, name, spec = _workload(args)
    if args.storm:
        # Correlated-failure schedules: plan options feed the storm
        # generator (overlapping kills + link flaps) instead of the
        # independent-fault plan.
        plan_options = {
            "kills": args.storm_kills,
            "flaps": args.storm_flaps,
            "flap_length": args.storm_flap_length,
            "transfer_fault_rate": args.transfer_fault_rate,
            "sync_drop_rate": args.sync_drop_rate,
        }
    else:
        plan_options = {
            "transfer_fault_rate": args.transfer_fault_rate,
            "sync_drop_rate": args.sync_drop_rate,
            "sync_corrupt_rate": args.sync_corrupt_rate,
            "straggler_rate": args.straggler_rate,
            "kill_gpu": args.kill_gpu,
            "kill_at_round": args.kill_round,
        }

    recovery = _recovery_policy(args, _CHAOS_POLICY)

    def sweep(redistribution_policy):
        return chaos_sweep(
            graph,
            algorithms=tuple(args.algorithms),
            engine_names=tuple(args.engines),
            seeds=tuple(args.seeds),
            machine=spec,
            recovery=replace(
                recovery, redistribution_policy=redistribution_policy
            ),
            graph_name=name,
            plan_options=plan_options,
            disable_recovery=args.no_recovery,
            include_serve=args.include_serve,
            storm=args.storm,
        )

    if args.crash_restart:
        from repro.faults import crash_restart_sweep

        results = crash_restart_sweep(
            graph,
            algorithms=tuple(args.algorithms),
            engine_names=tuple(args.engines),
            machine=spec,
            recovery=recovery,
            graph_name=name,
            include_serve=args.include_serve,
        )
    else:
        results = sweep(args.redistribution)
    all_passed = True
    for cell in results:
        all_passed = all_passed and cell.passed
        if args.strict_digests:
            all_passed = all_passed and cell.digest_match
        status = "PASS" if cell.passed else "FAIL"
        digest = "ok" if cell.digest_match else "MISMATCH"
        print(
            f"{cell.label + ' ':<34}{status}  "
            f"faults={cell.faults_injected:<3} "
            f"retries={cell.transfer_retries}+{cell.sync_retries} "
            f"stragglers={cell.stragglers_detected} "
            f"gpu_lost={cell.gpu_failures} "
            f"rollbacks={cell.rounds_rolled_back} "
            f"replay={cell.rollback_replay_rounds} "
            f"ckpt={cell.checkpoints_taken}"
            f"/{cell.incremental_checkpoints_taken}inc "
            f"spill={cell.checkpoint_bytes_spilled}B"
            f"/{cell.checkpoint_time_s:.2e}s"
            f"(hid {cell.checkpoint_hidden_time_s:.2e}s) "
            f"recov={cell.recovery_time_s:.2e}s "
            f"digest={digest}"
        )
        if args.verbose:
            print(f"  detail: {cell.detail}")
            print(f"  trace digest: {cell.trace_digest}")
            print(f"  golden state digest:    {cell.golden_digest}")
            print(f"  recovered state digest: {cell.recovered_digest}")
        if not cell.passed or (args.strict_digests and not cell.digest_match):
            print(f"  {cell.error or cell.detail}", file=sys.stderr)

    if (
        args.compare_redistribution
        and not args.no_recovery
        and not args.crash_restart
    ):
        other = (
            "edge-balance"
            if args.redistribution == "locality"
            else "locality"
        )
        alternate = sweep(other)
        print(
            f"redistribution comparison "
            f"({args.redistribution} vs {other}, recovered modeled time):"
        )
        for cell, alt in zip(results, alternate):
            delta = alt.recovered_time_s - cell.recovered_time_s
            sign = "+" if delta >= 0 else ""
            print(
                f"  {cell.label + ' ':<34}"
                f"{cell.recovered_time_s:.3e}s vs "
                f"{alt.recovered_time_s:.3e}s "
                f"({sign}{delta:.3e}s, alt "
                f"{'PASS' if alt.passed else 'FAIL'})"
            )
            all_passed = all_passed and alt.passed

    summary = "all cells recovered" if all_passed else "FAILURES above"
    print(f"{name}: {len(results)} chaos cells, {summary}")
    return 0 if all_passed else 1


def cmd_stream(args) -> int:
    from repro.streaming.session import run_stream_cell

    graph, name, spec = _workload(args)
    # Strict mode is meaningless without the oracle.
    certify = args.certify or args.strict

    all_passed = True
    for algorithm in args.algorithms:
        report = run_stream_cell(
            algorithm,
            name,
            seed=args.seed,
            machine=spec,
            graph=graph,
            certify=certify,
            verify_structure=args.strict,
            **from_args(args, TRACE_KNOBS),
        )
        print(
            f"{name}/{algorithm}: {args.batches} batches "
            f"(mix={args.mix}, batch_size={args.batch_size}, "
            f"seed={args.seed})"
        )
        for outcome in report.outcomes:
            stats = outcome.result.stats
            line = (
                f"  batch {outcome.batch_id}: mode={outcome.mode:<6} "
                f"seeds={len(outcome.plan.seed_vertices):<5} "
                f"reactivated={stats.vertices_reactivated:<6} "
                f"rounds={stats.incremental_rounds:<4} "
                f"repaired={stats.paths_repaired:<4} "
                f"incr={outcome.incremental_total_s:.3e}s"
            )
            if outcome.rebuild_total_s is not None:
                line += (
                    f" rebuild={outcome.rebuild_total_s:.3e}s "
                    f"speedup=x{outcome.speedup:.2f}"
                )
            if outcome.certification is not None:
                ok = outcome.certification.passed
                line += f" cert={'ok' if ok else 'FAIL'}"
                if not ok or args.verbose:
                    line += f" ({outcome.certification.detail})"
            print(line)
        all_passed = all_passed and report.certified
        totals = report.metrics()
        summary = f"  total incremental={totals['incremental_s']:.3e}s"
        if totals["rebuild_s"]:
            summary += (
                f" rebuild={totals['rebuild_s']:.3e}s "
                f"speedup=x{totals['speedup']:.2f}"
            )
        print(summary)
    if args.strict and not all_passed:
        print("stream: certification FAILURES above", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    from repro.serve.runner import run_serve_cell, serve_digest
    from repro.serve.server import OVERLOAD_KNOBS

    knobs = from_args(args, _serve_rows())
    report = run_serve_cell(
        args.algorithm,
        args.dataset,
        scale=args.scale,
        seed=args.seed,
        num_gpus=args.gpus,
        use_cache=False,
        **knobs,
    )
    metrics = report.metrics()
    print(
        f"{args.dataset}/{args.algorithm}: "
        f"{int(metrics['queries_completed'])}"
        f"/{int(metrics['queries_total'])} queries completed "
        f"({int(metrics['queries_failed'])} failed, "
        f"{int(metrics['replays'])} replayed) in "
        f"{int(metrics['batches'])} batches / "
        f"{int(metrics['launches'])} launches"
    )
    if any(knobs[name] for name in OVERLOAD_KNOBS):
        print(
            f"  overload: goodput={int(metrics['goodput_queries'])}"
            f"/{int(metrics['queries_total'])} "
            f"({metrics['goodput_per_s']:.0f} q/s) "
            f"degraded={int(metrics['queries_degraded'])} "
            f"shed={int(metrics['queries_shed'])} "
            f"rejected={int(metrics['queries_rejected'])} "
            f"late={int(metrics['deadline_misses'])} "
            f"max_residual_bound={metrics['residual_bound_max']:.3g}"
        )
    print(
        f"  throughput={metrics['queries_per_s']:.0f} q/s "
        f"p50={metrics['latency_p50_s'] * 1e6:.1f}us "
        f"p99={metrics['latency_p99_s'] * 1e6:.1f}us "
        f"makespan={metrics['makespan_s'] * 1e3:.3f}ms "
        f"gpu_busy={metrics['gpu_busy_s'] * 1e3:.3f}ms "
        f"peak_concurrency={int(metrics['peak_concurrency'])}"
    )
    for tenant, stats in sorted(report.per_tenant.items()):
        print(
            f"  {tenant:<12} queries={int(stats['queries']):<4} "
            f"completed={int(stats['completed']):<4} "
            f"p50={stats['latency_p50_s'] * 1e6:.1f}us "
            f"p99={stats['latency_p99_s'] * 1e6:.1f}us "
            f"max={stats['latency_max_s'] * 1e6:.1f}us"
        )
    if args.verbose:
        for result in report.results:
            digest = (result.digest or "-")[:12]
            print(
                f"    q{result.query.query_id:<4} "
                f"{result.query.tenant:<10} "
                f"{result.query.algorithm:<13} {result.status:<7} "
                f"batch={result.batch_id:<3} lanes={result.lanes:<2} "
                f"rounds={result.rounds:<4} "
                f"latency={result.latency_s * 1e6:9.1f}us "
                f"digest={digest}"
            )
    print(f"  serve digest: {serve_digest(report)[:16]}")
    exit_code = 0
    if report.failed:
        print(
            f"serve: {len(report.failed)} queries FAILED", file=sys.stderr
        )
        exit_code = 1
    if args.strict:
        from repro.serve.runner import serving_context_for
        from repro.verify.serve import verify_serve_report

        context = serving_context_for(
            args.dataset, args.algorithm, args.scale, _machine(args)
        )
        verdict = verify_serve_report(context, report)
        status = "PASS" if verdict.passed else "FAIL"
        print(f"  equivalence oracle: {status} ({verdict.detail})")
        if not verdict.passed:
            for line in verdict.failures:
                print(f"    {line}", file=sys.stderr)
            exit_code = 1
        degraded = [r for r in report.results if r.status == "degraded"]
        if degraded:
            from repro.verify.serve import verify_degraded_answer

            checks = [
                verify_degraded_answer(context, r) for r in degraded
            ]
            bad = [c for c in checks if not c.passed]
            status = "PASS" if not bad else "FAIL"
            print(
                f"  degraded-answer oracle: {status} "
                f"({len(degraded)} certificates checked)"
            )
            for check in bad:
                print(f"    {check.detail}", file=sys.stderr)
            if bad:
                exit_code = 1
    return exit_code


def cmd_sweep(args) -> int:
    from repro.bench.schema import write_artifact_file
    from repro.bench.sweep import (
        SweepConfig,
        compare_sweeps,
        load_artifact,
        run_sweep,
    )

    if args.config:
        config = SweepConfig.from_json(args.config)
    else:
        knobs = {}
        if args.vectorized_knob:
            knobs["use_vectorized_kernels"] = [False, True]
        config = SweepConfig.from_dict(
            {
                "engines": args.engines,
                "algorithms": args.algorithms,
                "graphs": args.graphs,
                "scale": args.scale,
                "seeds": args.seeds,
                "repeats": args.repeats,
                "knobs": knobs,
            }
        )

    report = run_sweep(
        config,
        progress=(
            (lambda cell_id: print(f"running {cell_id} ..."))
            if args.verbose
            else None
        ),
    )
    for cell in report["cells"]:
        wall = cell["wall_seconds"]
        first_metric = {
            "run": "processing_time_s",
            "stream": "incremental_s",
            "serve": "latency_p50_s",
        }[cell["mode"]]
        model = cell["metrics"][first_metric]
        flags = ""
        if not cell["deterministic"]:
            flags += " NONDETERMINISTIC"
        if not cell["converged"]:
            flags += " NOT-CONVERGED"
        print(
            f"{cell['cell_id']:<58} "
            f"model={model['mean']:.3e}s±{model['std']:.1e} "
            f"wall={wall['mean']:.3f}s±{wall['std']:.3f} "
            f"runs={cell['runs']}{flags}"
        )
    print(
        f"{report['matrix_cells']} cells, "
        f"{report['wall_seconds_total']:.2f}s total"
    )
    if args.output:
        write_artifact_file(report, args.output)
        print(f"wrote {args.output}")

    if args.gate:
        baseline = load_artifact(args.gate)
        gate = compare_sweeps(
            baseline,
            report,
            tolerance=args.tolerance,
            wall_tolerance=args.wall_tolerance,
        )
        for finding in gate.findings:
            stream = sys.stderr if finding.severity == "fail" else sys.stdout
            print(finding, file=stream)
        print(gate.summary())
        if not gate.passed:
            return 1
    return 0


def cmd_experiment(args) -> int:
    from repro.bench.experiments import EXPERIMENTS

    result = EXPERIMENTS[args.name](scale=args.scale)
    print(result["table"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DiGraph (ASPLOS 2019) reproduction CLI",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="re-raise errors with full tracebacks instead of the "
        "one-line 'error: ...' summary",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The knob rows and the experiment table load here, not at
    # ``import repro.cli``.
    from repro.bench.experiments import EXPERIMENTS
    from repro.faults.recovery import RecoveryPolicy

    run = sub.add_parser("run", help="run one engine on one workload")
    _add_run_args(run)
    run.add_argument(
        "--graph-dir",
        default="",
        help="sharded on-disk graph store built by `repro partition` "
        "(overrides --dataset/--edge-list; opened through the bounded "
        "shard cache)",
    )
    run.add_argument(
        "--graph-cache-bytes",
        type=int,
        default=None,
        help="shard-cache bound while opening --graph-dir "
        "(default: unbounded)",
    )
    run.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default="digraph",
        help="engine to run (default: digraph)",
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="print per-round sparklines (Fig. 2-style view)",
    )
    run.add_argument(
        "--vectorized",
        action="store_true",
        help="use the batched vertex-update kernels (bulk-sync only; "
        "same modeled cost, faster simulation)",
    )
    add_flags(
        run,
        knobs_of(RecoveryPolicy, *_RUN_POLICY),
        help={
            "checkpoint_interval": "checkpoint every K rounds when durable "
            "(default: 1)",
            "incremental_checkpoints": "spill per-round dirty deltas "
            "instead of full snapshots",
        },
    )
    run.set_defaults(func=cmd_run)

    rs = sub.add_parser(
        "resume",
        help="restart a killed durable run from its last intact "
        "checkpoint (bit-identical to the uninterrupted run)",
    )
    rs.add_argument(
        "--run-dir", required=True, help="durable run directory"
    )
    rs.add_argument(
        "--gpus",
        type=int,
        default=None,
        help="resume onto a different simulated GPU count: the restart "
        "is re-partitioned (warm-started from the newest intact "
        "checkpoint's vertex state) instead of refused",
    )
    rs.set_defaults(func=cmd_resume)

    pt = sub.add_parser(
        "partition",
        help="build a sharded on-disk graph store (bounded-memory "
        "streaming preprocessing)",
    )
    pt.add_argument(
        "--out-dir", required=True, help="store directory to create"
    )
    pt.add_argument(
        "--dataset",
        choices=datasets.DATASET_NAMES,
        default="cnr",
        help="built-in dataset stand-in to shard (default: cnr)",
    )
    pt.add_argument(
        "--edge-list",
        help="stream a 'src dst [weight]' file instead of --dataset "
        "(never materialized in RAM)",
    )
    pt.add_argument(
        "--npz",
        help="stream a save_npz archive instead of --dataset "
        "(decompressed once, chunked in CSR order)",
    )
    pt.add_argument(
        "--synthetic",
        metavar="VERTICES,EDGES",
        help="stream a deterministic synthetic graph of this size "
        "instead of --dataset (never materialized in RAM)",
    )
    pt.add_argument(
        "--scale", type=float, default=1.0, help="dataset scale factor"
    )
    pt.add_argument(
        "--weighted",
        action="store_true",
        help="load the --dataset with generated edge weights (use when "
        "the store will serve sssp runs)",
    )
    pt.add_argument(
        "--num-parts",
        type=int,
        default=4,
        help="shard count (one per target GPU; default: 4)",
    )
    pt.add_argument(
        "--policy",
        choices=("affinity", "random"),
        default="affinity",
        help="partition policy: dependency-cluster affinity (edge-cut "
        "minimizing METIS stand-in) or hashed random baseline",
    )
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument(
        "--chunk-edges",
        type=int,
        default=65_536,
        help="edges per streamed chunk (the resident unit; "
        "default: 65536)",
    )
    pt.set_defaults(func=cmd_partition)

    sc = sub.add_parser(
        "scrub",
        help="walk a durable run directory verifying every checksum; "
        "exits 1 on unrepaired corruption",
    )
    sc.add_argument(
        "--run-dir", required=True, help="durable run directory"
    )
    sc.add_argument(
        "--repair",
        action="store_true",
        help="drop damaged checkpoints from the manifest (falling back "
        "to the newest intact one) and GC orphaned files",
    )
    sc.set_defaults(func=cmd_scrub)

    compare = sub.add_parser("compare", help="run every engine on a workload")
    _add_run_args(compare)
    compare.set_defaults(func=cmd_compare)

    ds = sub.add_parser("datasets", help="print Table-1 dataset properties")
    ds.add_argument("--scale", type=float, default=1.0)
    ds.set_defaults(func=cmd_datasets)

    exp = sub.add_parser("experiment", help="regenerate one figure's table")
    exp.add_argument(
        "name",
        metavar="NAME",
        choices=tuple(EXPERIMENTS),
        help="e.g. fig11_updates, table1, ablation_dmax",
    )
    exp.add_argument("--scale", type=float, default=0.5)
    exp.set_defaults(func=cmd_experiment)

    kb = sub.add_parser(
        "kernels-bench",
        help="time scalar vs vectorized vertex updates on a synthetic graph",
    )
    kb.add_argument("--vertices", type=int, default=50_000)
    kb.add_argument(
        "--edges",
        type=int,
        default=None,
        help="edge count (default: 8x vertices)",
    )
    kb.add_argument("--seed", type=int, default=7)
    kb.add_argument(
        "--algorithms",
        nargs="+",
        choices=ALGORITHMS,
        default=["pagerank", "sssp", "wcc", "kcore"],
    )
    kb.add_argument(
        "--output",
        default="BENCH_kernels.json",
        help="JSON report path (default: BENCH_kernels.json)",
    )
    kb.set_defaults(func=cmd_kernels_bench)

    sw = sub.add_parser(
        "sweep",
        help="run a declarative benchmark matrix (engines x algorithms x "
        "graphs x knobs, repeated seeded runs) and optionally gate it "
        "against a committed baseline artifact",
    )
    sw.add_argument(
        "--config",
        help="JSON sweep config (overrides the inline matrix flags); "
        "see docs/benchmarking.md for the format",
    )
    sw.add_argument(
        "--engines",
        nargs="+",
        default=["bulk-sync", "digraph"],
        help="engines to sweep (default: bulk-sync digraph)",
    )
    sw.add_argument(
        "--algorithms",
        nargs="+",
        choices=ALGORITHMS,
        default=["pagerank", "sssp"],
        help="algorithms to sweep (default: pagerank sssp)",
    )
    sw.add_argument(
        "--graphs",
        nargs="+",
        choices=datasets.DATASET_NAMES,
        default=["cnr"],
        help="dataset stand-ins to sweep (default: cnr)",
    )
    sw.add_argument(
        "--scale", type=float, default=0.25, help="dataset scale factor"
    )
    sw.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=[0],
        help="seed axis; each cell runs once per seed (default: 0)",
    )
    sw.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="wall-clock repeats per seed; model metrics must be "
        "bit-identical across repeats (default: 1)",
    )
    sw.add_argument(
        "--vectorized-knob",
        action="store_true",
        help="sweep use_vectorized_kernels over {off, on}",
    )
    sw.add_argument(
        "--output",
        default="BENCH_sweep.json",
        help="artifact path (default: BENCH_sweep.json; '' to skip)",
    )
    sw.add_argument(
        "--gate",
        metavar="BASELINE",
        help="compare against this committed sweep artifact and exit 1 "
        "on any regression, digest mismatch, or missing cell",
    )
    sw.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="relative model-metric regression tolerance for --gate "
        "(default: 0.15)",
    )
    sw.add_argument(
        "--wall-tolerance",
        type=float,
        default=None,
        help="also gate real wall-clock at this relative tolerance "
        "(off by default: wall time is machine-dependent)",
    )
    sw.add_argument(
        "--verbose",
        action="store_true",
        help="print each cell id before running it",
    )
    sw.set_defaults(func=cmd_sweep)

    sv = sub.add_parser(
        "serve",
        help="serve a deterministic multi-tenant point-query trace with "
        "batched multi-source kernels over one shared preprocessed graph",
    )
    _add_workload_args(sv, scale=0.25, dataset="dblp", edge_list=False)
    sv.add_argument(
        "--algorithm",
        choices=["sssp", "bfs", "ppr", "reachability", "mixed"],
        default="mixed",
        help="query algorithm for the trace; 'mixed' draws uniformly "
        "over all servable algorithms (default: mixed)",
    )
    sv.add_argument("--seed", type=int, default=0)
    add_flags(sv, _serve_rows())
    sv.add_argument(
        "--strict",
        action="store_true",
        help="certify every served answer bit-identical to an "
        "independent single-source golden run; exit 1 on mismatch",
    )
    sv.add_argument(
        "--verbose",
        action="store_true",
        help="print one line per served query",
    )
    sv.set_defaults(func=cmd_serve)

    vf = sub.add_parser(
        "verify",
        help="run the invariant-checking conformance battery",
    )
    _add_workload_args(vf, scale=0.25, dataset=None, algorithms="verify")
    vf.add_argument(
        "--engines",
        nargs="+",
        default=["sequential", "bulk-sync", "async", "digraph"],
        help="engines for the cross-engine oracle "
        "(default: sequential bulk-sync async digraph)",
    )
    vf.add_argument(
        "--skip-metamorphic",
        action="store_true",
        help="skip the relabeling/augmentation relations (faster)",
    )
    vf.add_argument("--seed", type=int, default=7)
    vf.add_argument(
        "--verbose",
        action="store_true",
        help="print every check, not just failures",
    )
    vf.set_defaults(func=cmd_verify)

    ch = sub.add_parser(
        "chaos",
        help="sweep algorithms under a seeded fault plan and certify "
        "recovery against the fault-free golden state",
    )
    _add_workload_args(ch, scale=0.25, algorithms="sweep")
    ch.add_argument(
        "--engines",
        nargs="+",
        choices=ALL_CHAOS_ENGINES,
        default=["digraph"],
        help="engines to sweep: the DiGraph family and the baseline "
        "comparators (default: digraph)",
    )
    ch.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=[0],
        help="fault-plan seeds; each seed is one full grid sweep",
    )
    ch.add_argument(
        "--transfer-fault-rate",
        type=float,
        default=0.05,
        help="per-transfer probability of a transient fault",
    )
    ch.add_argument(
        "--sync-drop-rate",
        type=float,
        default=0.05,
        help="per-replica-batch probability of a dropped delivery",
    )
    ch.add_argument(
        "--sync-corrupt-rate",
        type=float,
        default=0.05,
        help="per-replica-batch probability of a corrupted delivery",
    )
    ch.add_argument(
        "--straggler-rate",
        type=float,
        default=0.1,
        help="per-round per-GPU probability of a straggler slowdown",
    )
    ch.add_argument(
        "--kill-gpu",
        type=int,
        default=None,
        help="GPU id to permanently fail mid-run (default: none)",
    )
    ch.add_argument(
        "--kill-round",
        type=int,
        default=1,
        help="compute round at which --kill-gpu dies (default: 1)",
    )
    ch.add_argument(
        "--storm",
        action="store_true",
        help="correlated failure schedules: overlapping GPU kills "
        "(including a second kill during replay) plus link "
        "down-then-up flaps, from one seeded storm generator",
    )
    ch.add_argument(
        "--storm-kills",
        type=int,
        default=2,
        help="GPU kills per storm plan (default: 2)",
    )
    ch.add_argument(
        "--storm-flaps",
        type=int,
        default=1,
        help="link down-then-up flap windows per storm plan (default: 1)",
    )
    ch.add_argument(
        "--storm-flap-length",
        type=int,
        default=3,
        help="consecutive transient transfer faults per flap "
        "(default: 3)",
    )
    ch.add_argument(
        "--include-serve",
        action="store_true",
        help="append a serving-layer chaos cell per seed (a storm cell "
        "with --storm)",
    )
    add_flags(ch, knobs_of(RecoveryPolicy, *_CHAOS_POLICY))
    ch.add_argument(
        "--compare-redistribution",
        action="store_true",
        help="re-run the sweep under the other redistribution policy "
        "and print the recovered-run modeled time deltas",
    )
    ch.add_argument(
        "--strict-digests",
        action="store_true",
        help="also require recovered state digests to equal the golden "
        "digests (bit-exact when the equivalence band is 0)",
    )
    ch.add_argument(
        "--no-recovery",
        action="store_true",
        help="inject faults with recovery disabled (cells are expected "
        "to FAIL; demonstrates the faults are real)",
    )
    ch.add_argument(
        "--crash-restart",
        action="store_true",
        help="sweep whole-job crash points (round boundary, mid-spill, "
        "mid-manifest-commit) instead of runtime faults: each cell "
        "kills the job, restarts it from the durable store, and must "
        "match the uninterrupted golden run bit for bit",
    )
    ch.add_argument(
        "--verbose",
        action="store_true",
        help="print per-cell detail and determinism digests",
    )
    ch.set_defaults(func=cmd_chaos)

    st = sub.add_parser(
        "stream",
        help="replay a seeded mutation trace with incremental path "
        "repair + delta recompute, certifying each batch against a "
        "from-scratch golden run",
    )
    _add_workload_args(st, scale=0.25, algorithms="stream")
    add_flags(st, TRACE_KNOBS)
    st.add_argument("--seed", type=int, default=7)
    st.add_argument(
        "--certify",
        action="store_true",
        help="run a from-scratch golden run per batch and certify the "
        "incremental fixpoint against it",
    )
    st.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any certification failure and verify the "
        "repaired decomposition's structural invariants per batch",
    )
    st.add_argument(
        "--verbose",
        action="store_true",
        help="print certification detail for passing batches too",
    )
    st.set_defaults(func=cmd_stream)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
