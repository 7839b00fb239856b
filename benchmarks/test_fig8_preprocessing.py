"""Fig. 8: preprocessing time normalized to the bulk-sync baseline."""

from repro.bench.experiments import EXPERIMENTS

from conftest import save_and_show


def test_fig8_preprocessing_premium(benchmark, results_dir):
    result = benchmark.pedantic(
        EXPERIMENTS["fig8_preprocessing"], rounds=1, iterations=1
    )
    save_and_show(results_dir, "fig8", result["table"])

    matrix = result["values"]["pagerank"]["preprocess"]
    for graph, per_engine in matrix.items():
        # DiGraph pays a preprocessing premium (path decomposition + DAG
        # sketch), but bounded — "slightly more preprocessing time".
        assert 1.0 < per_engine["digraph"] < 2.0, graph
        # async sits between the two.
        assert 1.0 <= per_engine["async"] <= per_engine["digraph"], graph
