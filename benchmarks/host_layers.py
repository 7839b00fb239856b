"""Host time of the DiGraph engine, the lane solver and the front end, by part.

One view over the spans ``src/`` declares (:mod:`repro.obs`): it drives
inputs under ``obs.record()`` and folds each span's exclusive host
seconds into the parts of a table. Importing this module raises if a
part names a span that ``src/`` does not declare, so a renamed function
cannot drop out of a table unnoticed.

``engine``: the ``batch-web`` and ``lifecycle-io`` workloads of
``benchmarks/e2e`` (seed 1, full size), each workload's own
``run_pass``. Only time inside ``DiGraphEngine.run`` counts, less any
preprocessing inside a run. Host microseconds per round, wave,
partition pass and apply, each cell the median over ``--passes``:

- ``walk loop``: the path walk of a partition pass (and DiGraph-t's
  per-vertex loop);
- ``scheduling``: ordering a local iteration's paths and packing them
  onto threads;
- ``pricing``: ``Machine.compute_round``, the kernel cost model;
- ``replica sync``: write contention and replica-update messages;
- ``activation delivery``: cross-GPU activations at the wave boundary;
- ``checkpoints``: snapshots of a run's state, with their durable
  commits (pages and manifest written to disk) when the run has a store;
- ``run set-up``: a run's state and tables (with the partition lift and
  execution tables when a run builds them first);
- ``scaffolding``: the rest of the run, its waves and passes.

``serve``: the ``serve-mixed`` workload (web graph, n = 1 000, seed 1),
its ``run_pass`` spans as columns: ``lo`` / ``nom`` / ``hi`` / ``over``
serve that operating point's trace; ``1 lane`` / ``8 lanes`` solve every
8-query batch one query at a time / as one 8-lane solve. Host
microseconds per launch (one kernel ``update``) from a pass with
recording off, then per part from as many recorded passes:

- ``server``: everything outside the solves;
- ``solver loop``: ``MultiSourceSolver.solve`` less the parts below;
- ``table cut``: masking a batch's gather table to the frontier;
- ``kernel``: the kernel's ``update`` over the masked table;
- ``scatter``: masking the batch's scatter table to the moved rows.

``front-end``: the social shape (the twitter recipe's knobs) at each
vertex count, preprocessed as a ``digraph`` run does, with the
partition lift and execution tables of its first run. Host seconds per
stage: ``generate`` (``scc_profile_graph``, timed here), Algorithm 1's
three, ``dependency`` (the rest of ``preprocess``: path objects, hot
classification, the dependency DAG), ``layout`` (partitions, storage
arrays, replica table) and ``lift + tables``; with two or more sizes, a
last row of each stage's growth.

Run it from the repository root; ``PYTHONPATH`` picks the tree measured:

    PYTHONPATH=src python benchmarks/host_layers.py engine --passes 5
    PYTHONPATH=src python benchmarks/host_layers.py serve --passes 5
    PYTHONPATH=src python benchmarks/host_layers.py front-end --vertices 16000
"""

import argparse
import os
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import workloads  # noqa: E402  (benchmarks/e2e)
from harness import PassContext  # noqa: E402

import repro.serve.context  # noqa: E402,F401  (declares its spans)
from repro import obs  # noqa: E402
from repro.core.engine import DiGraphConfig, DiGraphEngine  # noqa: E402
from repro.graph.generators import scc_profile_graph  # noqa: E402

RUN = "core.engine.DiGraphEngine.run"
PREPROCESS = "core.engine.DiGraphEngine.preprocess"
LIFT = (
    "core.dispatch.lift_to_partitions", "core.tables.ExecutionTables.build"
)
_R = "core.engine._Run."
#: engine part -> the spans charged to it.
ENGINE_PARTS = {
    "walk loop": (_R + "_walk_partition", _R + "_process_vertex_centric"),
    "scheduling": (
        "core.scheduling.PathScheduler.thread_order",
        "core.scheduling.pack_ordered",
    ),
    "pricing": ("gpu.machine.Machine.compute_round",),
    "replica sync": (
        _R + "_synchronize_replicas", "core.replicas.ReplicaTable.contention"
    ),
    "activation delivery": (_R + "_apply_deferred_activations",),
    "checkpoints": (
        "faults.checkpoint.CheckpointManager.checkpoint",
        "faults.store.CheckpointStore.commit_checkpoint",
    ),
    "run set-up": (_R + "__init__", *LIFT),
    "scaffolding": (RUN, _R + "_run_wave", _R + "_process_partition"),
}
#: engine unit -> the span whose calls count it.
ENGINE_UNITS = {
    "round": "gpu.machine.Machine.compute_round",
    "wave": _R + "_run_wave",
    "pass": _R + "_process_partition",
    "apply": "core.engine.applies",
}
ITERATION = "core.scheduling.PathScheduler.thread_order"

#: ``run_pass`` span -> serve column.
COLUMNS = {
    **{f"serve.server.{p}": p for p in workloads.POINTS},
    "serve.solver.solo8": "1 lane",
    "serve.solver.lane8": "8 lanes",
}
LAUNCH = "serve.solver.kernel.update"
#: serve part -> the spans charged to it (``server``: the column's own).
SERVE_PARTS = {
    "server": (),
    "solver loop": ("serve.solver.MultiSourceSolver.solve",),
    "table cut": ("kernels.segment.GatherTable.select",),
    "kernel": (LAUNCH,),
    "scatter": ("serve.context.ScatterTable.cut",),
}

SOCIAL = dict(
    avg_degree=20.0, giant_scc_fraction=0.80, avg_distance=4.46, seed=106
)
#: front-end stage -> the spans charged to it (``generate``: timed here).
STAGES = {
    "generate": (),
    "_walk_regions": ("core.partitioning._walk_regions",),
    "_Walk": (
        "core.partitioning._Walk.__init__",
        "core.partitioning._Walk.decompose_shard",
    ),
    "_merge_head_to_tail": ("core.partitioning._merge_head_to_tail",),
    "dependency": (PREPROCESS,),
    "layout": ("core.engine.DiGraphEngine.assemble",),
    "lift + tables": LIFT,
}

_NAMED = {
    span
    for parts in (ENGINE_PARTS, SERVE_PARTS, STAGES)
    for spans in parts.values()
    for span in spans
}
UNDECLARED = sorted(_NAMED.union(ENGINE_UNITS.values()) - set(obs.DECLARED))
if UNDECLARED:
    raise LookupError(f"spans not declared in src/: {UNDECLARED}")


def fold(seconds, parts, keep=lambda path: True):
    """``{part: seconds}`` over the call paths ``keep`` accepts, each
    charged to the part naming its innermost span (none: KeyError)."""
    part_of = {span: part for part, spans in parts.items() for span in spans}
    totals = dict.fromkeys(parts, 0.0)
    for path, value in seconds.items():
        if keep(path):
            totals[part_of[path[-1]]] += value
    return totals


def calls(rec, span, keep=lambda path: True):
    """Calls of ``span`` over the call paths ``keep`` accepts."""
    return sum(
        n for path, n in rec.calls.items() if path[-1] == span and keep(path)
    )


def _in_run(path):
    """Inside ``DiGraphEngine.run``, and not in a preprocess it runs."""
    return RUN in path and PREPROCESS not in path[path.index(RUN):]


class _Roots:
    """Stands in for the benchmark's tracer: each ``run_pass`` span opens
    a root of ``rec``'s call paths."""

    def __init__(self, rec):
        self.rec = rec

    @contextmanager
    def span(self, name):
        self.rec.enter(name)
        try:
            yield
        finally:
            self.rec.exit()


def _pass(workload, inputs, rec, work_dir=None):
    """``rec`` after one ``run_pass`` of ``workload``."""
    workload.run_pass(inputs, PassContext("timed", _Roots(rec)), work_dir)
    return rec


def engine(passes):
    for name in ("batch-web", "lifecycle-io"):
        workload = workloads.build(name, False)
        inputs = workload.setup(1, lambda span: nullcontext())
        recs = []
        with tempfile.TemporaryDirectory() as scratch:
            for index in range(passes):
                work_dir = os.path.join(scratch, str(index))
                with obs.record() as rec:
                    recs.append(_pass(workload, inputs, rec, work_dir))
        parts = [fold(rec.seconds, ENGINE_PARTS, _in_run) for rec in recs]
        last = recs[-1]
        counts = {u: calls(last, s, _in_run) for u, s in ENGINE_UNITS.items()}
        totals = [sum(p.values()) for p in parts]
        total = statistics.median(totals)
        print(
            f"### {name}: {calls(last, RUN)} digraph runs, "
            f"{total:.3f} s host, "
            f"{counts['round']} rounds, {counts['wave']} waves, "
            f"{counts['pass']} partition passes, "
            f"{calls(last, ITERATION, _in_run)} local iterations, "
            f"{counts['apply']} applies (median of {passes} passes)\n"
        )
        print("| part | share | us / round | us / wave | us / pass "
              "| us / apply |")
        print("|---|---|---|---|---|---|")
        for part in (*ENGINE_PARTS, "total"):
            seconds = statistics.median(
                totals if part == "total" else [p[part] for p in parts]
            )
            cells = [
                f"{1e6 * seconds / n:.1f}" if n else "-"
                for n in counts.values()
            ]
            print(f"| {part} | {100 * seconds / total:.1f} % | "
                  + " | ".join(cells) + " |")
        print()


def serve(passes):
    workload = workloads.build("serve-mixed", False)
    inputs = workload.setup(1, lambda name: nullcontext())
    us = {c: [] for c in COLUMNS}
    split = {c: {p: [] for p in SERVE_PARTS} for c in COLUMNS}
    for _ in range(passes):
        plain = _pass(workload, inputs, obs.Recording())  # spans off
        with obs.record() as rec:
            _pass(workload, inputs, rec)
        launches = {}
        for column in COLUMNS:
            def inside(path):
                return path[0] == column

            launches[column] = n = calls(rec, LAUNCH, inside)
            us[column].append(1e6 * plain.seconds[column,] / n)
            parts = {**SERVE_PARTS, "server": (column,)}
            for part, seconds in fold(rec.seconds, parts, inside).items():
                split[column][part].append(1e6 * seconds / n)

    def row(label, cells):
        print(f"| {label} | " + " | ".join(cells) + " |")

    def head():
        row("", [f"`{c}`" for c in COLUMNS.values()])
        print("|---" * (len(COLUMNS) + 1) + "|")

    def medians(samples):
        return [f"{statistics.median(samples[c]):.1f}" for c in COLUMNS]

    print(f"Host us per launch, median of {passes} passes\n")
    head()
    row("launches", [str(launches[c]) for c in COLUMNS])
    row("us / launch", medians(us))
    print("\nBy part (recorded passes), us per launch\n")
    head()
    for part in SERVE_PARTS:
        row(part, medians({c: split[c][part] for c in COLUMNS}))


def front_end(sizes):
    print("| n (m) | " + " | ".join(f"`{s}`" for s in STAGES) + " | total |")
    print("|---" * (len(STAGES) + 2) + "|")
    rows = []
    for n in sizes:
        started = time.perf_counter()
        graph = scc_profile_graph(n, **SOCIAL)
        generate = time.perf_counter() - started
        digraph = DiGraphEngine(config=DiGraphConfig(n_workers=1))
        with obs.record() as rec:
            pre = digraph.preprocess(graph)
            pre.partition_dependencies
            pre.execution_tables
        seconds = {**fold(rec.seconds, STAGES), "generate": generate}
        rows.append(seconds)
        cells = [f"{seconds[s]:.2f} s" for s in STAGES]
        print(f"| {n} ({graph.num_edges}) | " + " | ".join(cells)
              + f" | {sum(seconds.values()):.2f} s |")
    if len(rows) > 1:
        first, last = rows[0], rows[-1]
        growth = [f"{last[s] / first[s]:.1f}x" for s in STAGES]
        ratio = sum(last.values()) / sum(first.values())
        print("| growth | " + " | ".join(growth) + f" | {ratio:.1f}x |")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    layers = parser.add_subparsers(dest="layer", required=True)
    for layer, default in (("engine", 3), ("serve", 5)):
        layers.add_parser(layer).add_argument(
            "--passes", type=int, default=default,
            help=f"passes; each cell is their median (default: {default})",
        )
    layers.add_parser("front-end").add_argument(
        "--vertices", type=int, nargs="+", default=[16000],
        help="vertex counts to generate and preprocess (default: 16000)",
    )
    args = parser.parse_args(argv)
    if args.layer == "front-end":
        front_end(args.vertices)
    elif args.layer == "engine":
        engine(args.passes)
    else:
        serve(args.passes)


if __name__ == "__main__":
    main()
