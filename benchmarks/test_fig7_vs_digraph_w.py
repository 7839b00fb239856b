"""Fig. 7: DiGraph vs DiGraph-w (Pri(p) scheduling ablation)."""

from repro.bench.experiments import EXPERIMENTS

from conftest import save_and_show


def test_fig7_scheduling_ablation(benchmark, results_dir):
    result = benchmark.pedantic(
        EXPERIMENTS["fig7_vs_digraph_w"], rounds=1, iterations=1
    )
    save_and_show(results_dir, "fig7", result["table"])

    # Scheduling must never lose badly: DiGraph within 20% of DiGraph-w
    # everywhere (at paper scale it wins; at our scale partitions rarely
    # oversubscribe an SMX, so the deltas are small).
    for algo, per_metric in result["values"].items():
        for graph, per_engine in per_metric["time"].items():
            assert per_engine["digraph"] <= 1.2, (algo, graph)
