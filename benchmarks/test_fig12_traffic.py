"""Fig. 12: traffic volume of pagerank, normalized to bulk-sync."""

import numpy as np

from repro.bench.experiments import EXPERIMENTS

from conftest import save_and_show


def test_fig12_traffic_volume(benchmark, results_dir):
    result = benchmark.pedantic(
        EXPERIMENTS["fig12_traffic"], rounds=1, iterations=1
    )
    save_and_show(results_dir, "fig12", result["table"])

    matrix = result["values"]["pagerank"]["traffic"]
    ratios = [m["digraph"] for m in matrix.values()]
    async_ratios = [m["async"] for m in matrix.values()]
    # Async moves less data than the barriered baseline; DiGraph's
    # path-granular loading keeps it competitive on average.
    assert float(np.mean(async_ratios)) <= 1.0
    assert float(np.mean(ratios)) < 1.3
