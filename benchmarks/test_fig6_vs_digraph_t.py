"""Fig. 6: DiGraph vs DiGraph-t (path-based vs traditional async)."""

import numpy as np

from repro.bench.experiments import EXPERIMENTS

from conftest import save_and_show


def test_fig6_path_model_ablation(benchmark, results_dir):
    result = benchmark.pedantic(
        EXPERIMENTS["fig6_vs_digraph_t"], rounds=1, iterations=1
    )
    save_and_show(results_dir, "fig6", result["table"])

    # The path-based model needs fewer updates than traditional async
    # execution on the same partitions, for most algorithm/graph cells.
    wins = 0
    cells = 0
    for algo, per_graph in result["cells"].items():
        for graph, per_engine in per_graph.items():
            cells += 1
            if (
                per_engine["digraph"].vertex_updates
                <= per_engine["digraph-t"].vertex_updates
            ):
                wins += 1
    assert wins / cells >= 0.5
