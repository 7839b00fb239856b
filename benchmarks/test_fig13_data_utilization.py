"""Fig. 13: loaded-data utilization ratio, normalized to bulk-sync."""

from repro.bench.experiments import EXPERIMENTS

from conftest import save_and_show


def test_fig13_loaded_data_utilization(benchmark, results_dir):
    result = benchmark.pedantic(
        EXPERIMENTS["fig13_data_utilization"], rounds=1, iterations=1
    )
    save_and_show(results_dir, "fig13", result["table"])

    # DiGraph streams the paths it loads, so its utilization of loaded
    # data beats both baselines on every graph (the paper's claim).
    matrix = result["values"]["pagerank"]["data_utilization"]
    for graph, per_engine in matrix.items():
        assert per_engine["digraph"] > 1.0, graph
        assert per_engine["digraph"] >= per_engine["async"], graph
