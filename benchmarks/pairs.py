"""Paired before/after runs of the e2e benchmark, and the verdict on them.

    python benchmarks/pairs.py PARENT_TREE CHANGE_TREE --workload batch-web
    python benchmarks/pairs.py . . --workload batch-web --quick --pairs 2

The protocol a claimed gain is held to (``benchmarks/e2e/README.md``,
"Making a performance claim with this benchmark"): N pairs of the driver
form

    python benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0

one run from each source tree per pair, a fresh seed per pair, the side
that goes first alternating from pair to pair so that drift of the machine
lands on both. Each tree runs its own copy of the benchmark from its own
root, as the benchmark driver does. Every end-to-end metric is then
reported with each side's quartiles, the pairs the change won, and a
verdict:

- ``gain``       the change reads better in at least nine tenths of all
                 pairs (ties count for neither side) *and* the medians
                 differ by more than the parent's own quartile spread;
- ``regressed``  the change's median is worse than the parent's by more
                 than the metric's bound in ``BENCHMARK.json``;
- ``unresolved`` neither, but the parent's quartile spread is wider than
                 the bound, so "no regression" cannot be told from noise;
- ``equal``      every pair tied (what a model metric must read);
- ``unchanged``  none of the above.

Exits non-zero when a run fails or reports an incorrect result, never on
a verdict: what was claimed is for the reader to hold against the table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("batch-web", "prep-social", "serve-mixed", "lifecycle-io")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i runs seed + i")
    parser.add_argument("--seconds", type=float, default=None,
                        help="passed through (default: the benchmark's own)")
    parser.add_argument("--quick", action="store_true",
                        help="passed through: inputs ~10x smaller")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def run_once(tree: str, args: argparse.Namespace, seed: int) -> Dict[str, float]:
    """One driver-form run from ``tree``; its end-to-end metric values."""
    tree = os.path.abspath(tree)
    with tempfile.TemporaryDirectory(prefix="pairs-") as out:
        command = [
            sys.executable, os.path.join(tree, "benchmarks", "e2e", "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--trace", "0", "--out", out,
        ]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(
            command, cwd=tree, stdout=subprocess.PIPE, text=True
        )
    if done.returncode:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        raise RuntimeError(f"{tree}: {line['failed']} failed operations")
    return {name: m["value"] for name, m in line["metrics"].items()}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[int, int, str]:
    """``(wins, ties, verdict)`` of one metric over the pairs run."""
    sign = -1.0 if better == "lower" else 1.0
    gaps = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(gap > 0 for gap in gaps)
    ties = sum(gap == 0 for gap in gaps)
    if ties == len(gaps):
        return wins, ties, "equal"
    p_q1, p_median, p_q3 = quartiles(parent)
    median_gain = sign * (quartiles(change)[1] - p_median)
    spread = p_q3 - p_q1
    if wins >= 0.9 * len(gaps) and median_gain > spread:
        return wins, ties, "gain"
    if median_gain < -bound * abs(p_median):
        return wins, ties, "regressed"
    separated = all(
        sign * (c - p) > 0 for c in change for p in parent
    )
    if spread > bound * abs(p_median) and not separated:
        return wins, ties, "unresolved"
    return wins, ties, "unchanged"


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        specs = json.load(fh)["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                runs[side].append(run_once(sides[side], args, seed))
            except RuntimeError as failure:
                print(f"error: {failure}", file=sys.stderr)
                return 1
        print(
            f"pair {pair + 1}/{args.pairs} seed {seed} ({order[0]} first): "
            f"wall_s {runs['parent'][-1]['wall_s']:.3f} -> "
            f"{runs['change'][-1]['wall_s']:.3f}",
            flush=True,
        )

    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seed}-"
          f"{args.seed + args.pairs - 1}; q1/median/q3, parent -> change")
    for spec in specs:
        name = spec["name"]
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        wins, ties, word = verdict(parent, change, spec["better"], spec["bound"])
        p, c = quartiles(parent), quartiles(change)
        ratio = c[1] / p[1] if p[1] else float("nan")
        print(
            f"  {name:<30} {p[0]:.6g}/{p[1]:.6g}/{p[2]:.6g} -> "
            f"{c[0]:.6g}/{c[1]:.6g}/{c[2]:.6g} {spec['unit']:<4} "
            f"x{ratio:.3f}  wins {wins}/{args.pairs} ties {ties}  {word}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
