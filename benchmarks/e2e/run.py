#!/usr/bin/env python3
"""The repo's benchmark: four workloads, two clocks, one command.

    python benchmarks/e2e/run.py [--seed N] [--workloads W ...] [--trace]
                                 [--out DIR] [--quick]

runs each workload in its own subprocess, one after another, prints
every metric by name with its unit and clock, and writes
``results.json`` (input of ``compare.py``) and, with ``--trace``, one
``trace-<workload>.json`` per workload to ``--out``.

    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

is the form the benchmark driver calls: one workload in this process,
and as the last line of standard output one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

# One thread: a BLAS pool would put a second clock under the host numbers.
for _pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_pool, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

WORKLOADS = ("batch-web", "prep-social", "serve-mixed", "lifecycle-io")
DEFAULT_OUT = os.path.join(HERE, "out")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this one workload in-process (driver form)")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS), metavar="W")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed passes of a workload run "
                             "(default: run_seconds of BENCHMARK.json; whole "
                             "passes, never fewer than the workload's minimum)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0)
    parser.add_argument("--out", default=DEFAULT_OUT, metavar="DIR")
    parser.add_argument("--quick", action="store_true",
                        help="inputs ~10x smaller, two timed passes (self-tests)")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    """Driver form: one workload, in this process."""
    source = os.path.join(harness.ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"error: no program to measure: {source}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    contract = harness.load_contract()
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.quick else float(contract["run_seconds"])
    os.makedirs(args.out, exist_ok=True)

    def log(message: str) -> None:
        print(f"[{args.workload}] {message}", flush=True)

    # Imported here: it pulls in ``repro``, whose import set-up times.
    def build(name, quick):
        import workloads

        return workloads.build(name, quick)

    result = harness.run_workload(
        build, args.workload, args.quick, args.seed, seconds,
        bool(args.trace), args.out, log,
    )
    with open(os.path.join(args.out, f"result-{args.workload}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    for line in harness.format_metrics(contract, result):
        print(line)
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    iqr = result["metrics"].get("host.wall_iqr_fraction")
    wall_bound = next(
        s["bound"] for s in contract["end_to_end"] if s["name"] == "wall_s"
    )
    if iqr and iqr["value"] > wall_bound:
        print(f"warning: wall_s quartile spread {iqr['value']:.1%} exceeds "
              f"its bound {wall_bound:.0%}; this machine is too noisy to "
              f"resolve a regression", file=sys.stderr)
    print(harness.driver_line(contract, result), flush=True)
    return 1 if result["failed"] else 0


def run_all(args: argparse.Namespace) -> int:
    """One subprocess per workload, one at a time: nothing else of ours
    competes for the cores while a workload is timed."""
    os.makedirs(args.out, exist_ok=True)
    results, status = {}, 0
    for name in args.workloads:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--trace", str(args.trace),
            "--out", args.out,
        ]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.quick:
            command.append("--quick")
        code = subprocess.run(command).returncode
        if code:
            print(f"error: workload {name} exited with {code}", file=sys.stderr)
            status = 1
            continue
        with open(os.path.join(args.out, f"result-{name}.json")) as fh:
            results[name] = json.load(fh)
    with open(os.path.join(args.out, "results.json"), "w") as fh:
        json.dump(
            {"seed": args.seed, "quick": args.quick, "workloads": results},
            fh, indent=1,
        )
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
