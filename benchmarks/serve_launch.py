"""Host microseconds per lane launch on the ``serve-mixed`` inputs.

Builds the ``serve-mixed`` workload of ``benchmarks/e2e`` (web graph,
n = 1 000, 29 layer batches, seed 1) and runs its own ``run_pass``,
timing each of the pass's spans as one column:

- ``lo`` / ``nom`` / ``hi`` / ``over``: one ``QueryServer.serve`` of
  that operating point's trace (admission, batching and answers
  included);
- ``1 lane``: every 8-query batch solved one query at a time;
- ``8 lanes``: every 8-query batch solved as one 8-lane solve.

The first table is host microseconds per launch, each cell the median
over ``--passes`` passes. The second splits every column into parts,
from as many separate passes that time ``MultiSourceSolver.solve``,
``GatherTable.select``, the kernel's ``update`` and
``ScatterTable.cut`` from outside (each timed call adds a fraction of a
microsecond to the part around it):

- ``server``: everything outside the solves;
- ``solver loop``: union frontier, fault hook, cost model, ``old``
  gather, gated write, activation writes;
- ``table cut``: masking the batch's gather table to the frontier;
- ``kernel``: the kernel's ``update`` over the masked table;
- ``scatter``: masking the batch's scatter table to the moved rows.

Run it from the repository root; ``PYTHONPATH`` picks the tree measured:

    PYTHONPATH=src python benchmarks/serve_launch.py --passes 5
"""

import argparse
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import workloads  # noqa: E402  (benchmarks/e2e)
from harness import PassContext  # noqa: E402

import repro.serve.solver as solver_module  # noqa: E402
from repro.kernels.segment import GatherTable  # noqa: E402
from repro.serve.context import ScatterTable  # noqa: E402

#: ``run_pass`` span -> column label.
COLUMNS = {
    **{f"serve.server.{p}": p for p in workloads.POINTS},
    "serve.solver.solo8": "1 lane",
    "serve.solver.lane8": "8 lanes",
}
#: Part label -> ``(owner, attribute)`` timed from outside; ``None``
#: marks the kernel's ``update``, wrapped on each kernel a solve builds.
LAUNCH_PARTS = {
    "table cut": (GatherTable, "select"),
    "kernel": None,
    "scatter": (ScatterTable, "cut"),
}
PARTS = ("server", "solver loop") + tuple(LAUNCH_PARTS)


class ColumnClock:
    """Stands in for the benchmark's tracer: host seconds per span name,
    and the name of the span open now."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.open = None

    @contextmanager
    def span(self, name):
        self.open = name
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - started
            self.open = None


def run_pass(workload, inputs, clock):
    """One ``run_pass`` of the workload, its spans timed on ``clock``."""
    workload.run_pass(inputs, PassContext("timed", clock), None)
    return clock


def instrumented_pass(workload, inputs):
    """``({column: {part: host seconds}}, {column: launches})`` of one
    pass with the solves and launch parts timed; a launch is one
    ``update`` call."""
    seconds = defaultdict(lambda: defaultdict(float))
    launches = defaultdict(int)
    clock = ColumnClock()

    def timed(part, fn):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[clock.open][part] += time.perf_counter() - started

        return wrapper

    def counted(fn):
        def wrapper(*args, **kwargs):
            launches[clock.open] += 1
            return fn(*args, **kwargs)

        return wrapper

    solver_cls = solver_module.MultiSourceSolver
    originals = (solver_module.resolve_kernel, solver_cls.solve)
    patched = {
        part: bound for part, bound in LAUNCH_PARTS.items() if bound
    }
    methods = {part: getattr(*bound) for part, bound in patched.items()}

    def resolve_timed(programs, graph):
        kernel = originals[0](programs, graph)
        kernel.update = counted(timed("kernel", kernel.update))
        return kernel

    solver_module.resolve_kernel = resolve_timed
    solver_cls.solve = timed("solve", originals[1])
    for part, (owner, attribute) in patched.items():
        setattr(owner, attribute, timed(part, methods[part]))
    try:
        run_pass(workload, inputs, clock)
    finally:
        solver_module.resolve_kernel, solver_cls.solve = originals
        for part, (owner, attribute) in patched.items():
            setattr(owner, attribute, methods[part])
    split = {}
    for span in COLUMNS:
        part = seconds[span]
        launch = sum(part[p] for p in LAUNCH_PARTS)
        split[span] = {
            "server": clock.seconds[span] - part["solve"],
            "solver loop": part["solve"] - launch,
            **{p: part[p] for p in LAUNCH_PARTS},
        }
    return split, launches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--passes", type=int, default=5,
        help="passes per column; each cell is their median (default: 5)",
    )
    args = parser.parse_args(argv)
    workload = workloads.build("serve-mixed", False)
    inputs = workload.setup(1, lambda name: nullcontext())

    us = {c: [] for c in COLUMNS}
    split = {c: {p: [] for p in PARTS} for c in COLUMNS}
    for _ in range(args.passes):
        clock = run_pass(workload, inputs, ColumnClock())
        parts, launches = instrumented_pass(workload, inputs)
        for span in COLUMNS:
            us[span].append(1e6 * clock.seconds[span] / launches[span])
            for part, seconds in parts[span].items():
                split[span][part].append(1e6 * seconds / launches[span])

    def row(label, cells):
        print(f"| {label} | " + " | ".join(cells) + " |")

    def head():
        row("", [f"`{c}`" for c in COLUMNS.values()])
        print("|---" * (len(COLUMNS) + 1) + "|")

    def medians(samples):
        return [f"{statistics.median(samples[c]):.1f}" for c in COLUMNS]

    print(f"Host us per launch, median of {args.passes} passes\n")
    head()
    row("launches", [str(launches[c]) for c in COLUMNS])
    row("us / launch", medians(us))
    print("\nBy part (instrumented passes), us per launch\n")
    head()
    for part in PARTS:
        row(part, medians({c: split[c][part] for c in COLUMNS}))


if __name__ == "__main__":
    main()
