"""Host microseconds of the DiGraph engine per round, wave, pass and apply.

Builds the ``batch-web`` and ``lifecycle-io`` workloads of
``benchmarks/e2e`` (seed 1, full size) and runs each workload's own
``run_pass`` with timers interposed on the engine's parts. Only time
inside a ``DiGraphEngine.run`` call counts (``lifecycle-io``'s durable
and crash-restart runs included; the bulk-sync, async and storage work
around them does not), split into:

- ``walk loop``: the Gauss-Seidel path walk of a partition pass (and
  DiGraph-t's per-vertex loop), minus the parts below that it calls;
- ``scheduling``: ordering a local iteration's paths by ``Pri(p)`` and
  packing them onto threads;
- ``pricing``: ``Machine.compute_round``, the kernel cost model;
- ``replica sync``: write contention and replica-update messages of a
  pass;
- ``activation delivery``: cross-GPU activations at the wave boundary;
- ``run set-up``: building a run's state and per-run tables;
- ``scaffolding``: everything else in the run (waves, views, runnable
  selection, residency, prefetch, flush, records, checkpoints).

Each part is charged its own time only: a timed call inside another
timed call is taken out of its caller's part. Preprocessing inside a
run (``lifecycle-io`` runs without a shared preprocess) is left out.
The names timed include those of earlier trees of the engine, so the
script measures a parent checkout the same way; a name missing from the
tree measured is skipped.

The table is host microseconds per round, wave, partition pass and
apply, each cell the median over ``--passes`` passes. Run it from the
repository root; ``PYTHONPATH`` picks the tree measured:

    PYTHONPATH=src python benchmarks/engine_pass.py --passes 3
"""

import argparse
import importlib
import os
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import workloads  # noqa: E402  (benchmarks/e2e)
from harness import PassContext  # noqa: E402

WORKLOADS = ("batch-web", "lifecycle-io")

#: part -> the callables charged to it, as (module, class or None, name).
HOOKS = {
    "walk loop": (
        ("repro.core.engine", "_Run", "_walk_partition"),
        ("repro.core.engine", "_Run", "_process_vertex_centric"),
    ),
    "scheduling": (
        ("repro.core.scheduling", "PathScheduler", "order_paths"),
        ("repro.core.scheduling", "PathScheduler", "thread_order"),
        ("repro.core.engine", None, "balance_paths_to_threads"),
        ("repro.core.engine", None, "pack_ordered"),
    ),
    "pricing": (("repro.gpu.machine", "Machine", "compute_round"),),
    "replica sync": (
        ("repro.core.engine", "_Run", "_synchronize_replicas"),
        ("repro.core.replicas", "ReplicaTable", "contention"),
    ),
    "activation delivery": (
        ("repro.core.engine", "_Run", "_apply_deferred_activations"),
    ),
    "run set-up": (("repro.core.engine", "_Run", "__init__"),),
    "preprocess": (("repro.core.engine", "DiGraphEngine", "preprocess"),),
}
PARTS = tuple(p for p in HOOKS if p != "preprocess") + ("scaffolding",)
#: unit -> the hook whose calls count it (applies are read off the runs).
UNITS = {
    "round": ("repro.gpu.machine", "Machine", "compute_round"),
    "wave": ("repro.core.engine", "_Run", "_run_wave"),
    "pass": ("repro.core.engine", "_Run", "_process_partition"),
}
ITERATION_HOOKS = (
    ("repro.core.scheduling", "PathScheduler", "order_paths"),
    ("repro.core.scheduling", "PathScheduler", "thread_order"),
)


class EngineClock:
    """Exclusive host seconds per part, inside ``DiGraphEngine.run``."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.applies = 0
        self.runs = 0
        self.stack = []  # [part, started, seconds of timed callees]

    def timed(self, part, fn):
        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            frame = [part, time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[1]
                self.stack.pop()
                self.seconds[part] += elapsed - frame[2]
                self.stack[-1][2] += elapsed

        return wrapper

    def counted(self, key, fn):
        def wrapper(*args, **kwargs):
            if self.stack:
                self.calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run(self, fn):
        def wrapper(engine, *args, **kwargs):
            frame = ["scaffolding", time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                return fn(engine, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[1]
                self.stack.pop()
                self.seconds["scaffolding"] += elapsed - frame[2]
                self.runs += 1

        return wrapper

    def execute(self, fn):
        def wrapper(run, *args, **kwargs):
            try:
                return fn(run, *args, **kwargs)
            finally:
                self.applies += run.machine.stats.apply_calls

        return wrapper


def _resolve(hook):
    module, owner, name = hook
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    return (target, name) if name in vars(target) else None


def instrumented_pass(workload, inputs, work_dir):
    """The clock of one ``run_pass`` with every hook interposed."""
    clock = EngineClock()
    patches = []

    def patch(hook, wrap):
        found = _resolve(hook)
        if found is None:
            return
        target, name = found
        original = vars(target)[name]
        patches.append((target, name, original))
        setattr(target, name, wrap(original))

    for part, hooks in HOOKS.items():
        for hook in hooks:
            patch(hook, lambda fn, part=part: clock.timed(part, fn))
    for unit, hook in UNITS.items():
        patch(hook, lambda fn, unit=unit: clock.counted(unit, fn))
    for hook in ITERATION_HOOKS:
        patch(hook, lambda fn: clock.counted("iteration", fn))
    patch(("repro.core.engine", "DiGraphEngine", "run"), clock.run)
    patch(("repro.core.engine", "_Run", "execute"), clock.execute)
    try:
        workload.run_pass(
            inputs, PassContext("timed", _Untimed()), work_dir
        )
    finally:
        for target, name, original in reversed(patches):
            setattr(target, name, original)
    return clock


class _Untimed:
    def span(self, name):
        return nullcontext()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--passes", type=int, default=3,
        help="passes per workload; each cell is their median (default: 3)",
    )
    args = parser.parse_args(argv)
    for name in WORKLOADS:
        workload = workloads.build(name, False)
        inputs = workload.setup(1, lambda span: nullcontext())
        clocks = []
        with tempfile.TemporaryDirectory() as scratch:
            for index in range(args.passes):
                work_dir = os.path.join(scratch, f"pass{index}")
                clocks.append(instrumented_pass(workload, inputs, work_dir))
        _report(name, clocks)


def _report(name, clocks):
    last = clocks[-1]
    counts = {
        "round": last.calls["round"],
        "wave": last.calls["wave"],
        "pass": last.calls["pass"],
        "apply": last.applies,
    }
    totals = [sum(c.seconds[p] for p in PARTS) for c in clocks]
    print(
        f"### {name}: {last.runs} digraph runs, "
        f"{statistics.median(totals):.3f} s host, "
        f"{counts['round']} rounds, {counts['wave']} waves, "
        f"{counts['pass']} partition passes, "
        f"{last.calls['iteration']} local iterations, "
        f"{counts['apply']} applies (median of {len(clocks)} passes)\n"
    )
    print("| part | share | us / round | us / wave | us / pass | us / apply |")
    print("|---|---|---|---|---|---|")
    for part in PARTS + ("total",):
        seconds = statistics.median(
            sum(c.seconds[p] for p in PARTS) if part == "total"
            else c.seconds[part]
            for c in clocks
        )
        share = seconds / statistics.median(totals)
        cells = [
            f"{1e6 * seconds / n:.1f}" if n else "-"
            for n in counts.values()
        ]
        print(f"| {part} | {100 * share:.1f} % | " + " | ".join(cells) + " |")
    print()


if __name__ == "__main__":
    main()
