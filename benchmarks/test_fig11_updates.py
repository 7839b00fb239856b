"""Fig. 11: vertex-update counts normalized to the bulk-sync baseline."""

import numpy as np

from repro.bench.experiments import EXPERIMENTS

from conftest import save_and_show


def test_fig11_update_reduction(benchmark, results_dir):
    result = benchmark.pedantic(
        EXPERIMENTS["fig11_updates"], rounds=1, iterations=1
    )
    save_and_show(results_dir, "fig11", result["table"])

    ratios = []
    for algo, per_metric in result["values"].items():
        for graph, per_engine in per_metric["updates"].items():
            if np.isnan(per_engine["digraph"]):
                continue  # k-core can peel nothing (0 updates everywhere)
            ratios.append(per_engine["digraph"])
            # Groute-like async also updates less than Gunrock-like BSP.
            assert per_engine["async"] <= 1.05, (algo, graph)
    # DiGraph needs fewer updates than bulk-sync on average (paper:
    # large reductions; shape check here).
    assert float(np.mean(ratios)) < 1.0


def test_fig11_long_distance_graphs_benefit_most(benchmark, results_dir):
    """Paper: 'DiGraph gets much better performance on the directed
    graph with longer average distance' — cnr vs twitter."""
    result = benchmark.pedantic(
        EXPERIMENTS["fig11_updates"],
        kwargs={"algos": ["pagerank"]},
        rounds=1,
        iterations=1,
    )
    matrix = result["values"]["pagerank"]["updates"]
    ratio_cnr = matrix["cnr"]["digraph"] / matrix["cnr"]["async"]
    ratio_twitter = matrix["twitter"]["digraph"] / matrix["twitter"]["async"]
    assert ratio_cnr < ratio_twitter
