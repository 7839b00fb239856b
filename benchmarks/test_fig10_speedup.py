"""Fig. 10: graph processing speedups over the bulk-sync baseline."""

import numpy as np

from repro.bench.experiments import EXPERIMENTS

from conftest import save_and_show


def test_fig10_speedups(benchmark, results_dir):
    result = benchmark.pedantic(
        EXPERIMENTS["fig10_speedup"], rounds=1, iterations=1
    )
    save_and_show(results_dir, "fig10", result["table"])

    digraph_speedups = []
    async_speedups = []
    for algo, per_metric in result["values"].items():
        for graph, per_engine in per_metric["time"].items():
            digraph_speedups.append(per_engine["digraph"])
            async_speedups.append(per_engine["async"])
    # Async (no barrier) beats bulk-sync on average; DiGraph beats it
    # on the sparse-frontier workloads (SSSP) and on average stays >= 1.
    assert float(np.mean(async_speedups)) > 1.0
    assert float(np.mean(digraph_speedups)) > 1.0
    sssp = result["values"]["sssp"]["time"]
    sssp_wins = [
        per_engine["digraph"] > 1.0 for per_engine in sssp.values()
    ]
    assert sum(sssp_wins) >= len(sssp_wins) * 0.8
