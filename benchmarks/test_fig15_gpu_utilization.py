"""Fig. 15: GPU utilization ratio, pagerank."""

import numpy as np

from repro.bench.experiments import EXPERIMENTS

from conftest import save_and_show


def test_fig15_gpu_utilization(benchmark, results_dir):
    result = benchmark.pedantic(
        EXPERIMENTS["fig15_gpu_utilization"], rounds=1, iterations=1
    )
    save_and_show(results_dir, "fig15", result["table"])

    # The asynchronous engines (no barrier) beat the synchronous one on
    # average — the paper's core Fig. 15 claim.
    matrix = result["values"]["pagerank"]["gpu_utilization"]
    sync = [per_engine["bulk-sync"] for per_engine in matrix.values()]
    async_ = [per_engine["async"] for per_engine in matrix.values()]
    assert float(np.mean(async_)) > float(np.mean(sync))
    for per_engine in matrix.values():
        for engine in ("bulk-sync", "async", "digraph"):
            assert 0 < per_engine[engine] <= 1
