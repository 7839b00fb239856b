"""Host seconds of the front end, stage by stage.

Generates the social shape (the twitter recipe's knobs) at each vertex
count, preprocesses it as a ``digraph`` run does (the partition
dependencies included), and prints a markdown table of the host seconds
per stage:

- ``generate``: ``scc_profile_graph``;
- ``_walk_regions``: the SCC-region labels the walk is confined to;
- ``_Walk``: Algorithm 1's traversal;
- ``_merge_head_to_tail``: the short-path merge;
- ``rest``: the dependency DAG, partitions, storage, replicas and the
  partition lift.

With two or more sizes, the last row is each stage's growth from the
first size to the last.

    PYTHONPATH=src python benchmarks/front_end.py --vertices 4000 16000
"""

import argparse
import time

from repro.core import partitioning
from repro.core.engine import DiGraphConfig, DiGraphEngine
from repro.graph.generators import scc_profile_graph

SOCIAL = dict(
    avg_degree=20.0, giant_scc_fraction=0.80, avg_distance=4.46, seed=106
)
STAGES = ("generate", "_walk_regions", "_Walk", "_merge_head_to_tail", "rest")


def _timed(seconds, stage, fn):
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[stage] += time.perf_counter() - started

    return wrapper


def measure(n):
    """``{stage: host seconds}`` for one size, plus the edge count."""
    seconds = dict.fromkeys(STAGES, 0.0)
    walk = partitioning._Walk
    originals = (
        partitioning._walk_regions,
        partitioning._merge_head_to_tail,
        walk.__init__,
        walk.decompose_shard,
    )
    partitioning._walk_regions = _timed(seconds, "_walk_regions", originals[0])
    partitioning._merge_head_to_tail = _timed(
        seconds, "_merge_head_to_tail", originals[1]
    )
    walk.__init__ = _timed(seconds, "_Walk", originals[2])
    walk.decompose_shard = _timed(seconds, "_Walk", originals[3])
    try:
        started = time.perf_counter()
        graph = scc_profile_graph(n, **SOCIAL)
        seconds["generate"] = time.perf_counter() - started
        started = time.perf_counter()
        engine = DiGraphEngine(config=DiGraphConfig(n_workers=1))
        engine.preprocess(graph).partition_dependencies
        total = time.perf_counter() - started
    finally:
        (
            partitioning._walk_regions,
            partitioning._merge_head_to_tail,
            walk.__init__,
            walk.decompose_shard,
        ) = originals
    seconds["rest"] = total - sum(seconds[s] for s in STAGES[1:-1])
    return seconds, graph.num_edges


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--vertices", type=int, nargs="+", default=[16000],
        help="vertex counts to generate and preprocess (default: 16000)",
    )
    args = parser.parse_args(argv)
    print("| n (m) | " + " | ".join(f"`{s}`" for s in STAGES) + " | total |")
    print("|---" * (len(STAGES) + 2) + "|")
    rows = []
    for n in args.vertices:
        seconds, m = measure(n)
        rows.append(seconds)
        cells = [f"{seconds[s]:.2f} s" for s in STAGES]
        total = sum(seconds.values())
        print(f"| {n} ({m}) | " + " | ".join(cells) + f" | {total:.2f} s |")
    if len(rows) > 1:
        first, last = rows[0], rows[-1]
        growth = [f"{last[s] / first[s]:.1f}x" for s in STAGES]
        ratio = sum(last.values()) / sum(first.values())
        print("| growth | " + " | ".join(growth) + f" | {ratio:.1f}x |")


if __name__ == "__main__":
    main()
