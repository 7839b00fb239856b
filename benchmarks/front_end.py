"""Host seconds of the front end, stage by stage.

Generates the social shape (the twitter recipe's knobs) at each vertex
count, preprocesses it as a ``digraph`` run does (the partition lift and
the execution tables of its first run included), and prints a markdown
table of the host seconds per stage:

- ``generate``: ``scc_profile_graph``;
- ``_walk_regions``: the SCC-region labels the walk is confined to;
- ``_Walk``: Algorithm 1's traversal;
- ``_merge_head_to_tail``: the short-path merge;
- ``dependency``: the rest of the decomposition (path objects, hot
  classification) and the dependency DAG;
- ``layout``: partitions, the storage arrays and the replica table;
- ``lift + tables``: the partition lift, its dispatch groups and the
  execution tables.

With two or more sizes, the last row is each stage's growth from the
first size to the last.

    PYTHONPATH=src python benchmarks/front_end.py --vertices 4000 16000
"""

import argparse
import time

from repro.core import engine as engine_module, partitioning
from repro.core.engine import DiGraphConfig, DiGraphEngine
from repro.graph.generators import scc_profile_graph

SOCIAL = dict(
    avg_degree=20.0, giant_scc_fraction=0.80, avg_distance=4.46, seed=106
)
STAGES = (
    "generate", "_walk_regions", "_Walk", "_merge_head_to_tail",
    "dependency", "layout", "lift + tables",
)
#: The walk stages and the layout are timed where ``DiGraphEngine`` calls
#: them; ``dependency`` is the rest of ``preprocess``.
PATCHED = (
    (partitioning, "_walk_regions", "_walk_regions"),
    (partitioning, "_merge_head_to_tail", "_merge_head_to_tail"),
    (partitioning._Walk, "__init__", "_Walk"),
    (partitioning._Walk, "decompose_shard", "_Walk"),
    (engine_module, "build_partitions", "layout"),
    (engine_module, "PathStorage", "layout"),
    (engine_module, "ReplicaTable", "layout"),
)


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
    originals = [getattr(owner, name) for owner, name, _ in PATCHED]
    for (owner, name, stage), fn in zip(PATCHED, originals):
        setattr(owner, name, _timed(seconds, stage, fn))
    try:
        started = time.perf_counter()
        graph = scc_profile_graph(n, **SOCIAL)
        seconds["generate"] = time.perf_counter() - started
        started = time.perf_counter()
        engine = DiGraphEngine(config=DiGraphConfig(n_workers=1))
        pre = engine.preprocess(graph)
        preprocess = time.perf_counter() - started
        started = time.perf_counter()
        pre.partition_dependencies
        pre.execution_tables
        seconds["lift + tables"] = time.perf_counter() - started
    finally:
        for (owner, name, _), fn in zip(PATCHED, originals):
            setattr(owner, name, fn)
    seconds["dependency"] = preprocess - sum(
        seconds[s] for s in STAGES[1:4] + ("layout",)
    )
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
