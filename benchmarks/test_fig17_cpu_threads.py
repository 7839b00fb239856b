"""Fig. 17: total time vs CPU preprocessing workers and GPU count."""

from repro.bench.experiments import EXPERIMENTS

from conftest import save_and_show


def test_fig17_preprocessing_scaling(benchmark, results_dir):
    result = benchmark.pedantic(
        EXPERIMENTS["fig17_cpu_threads"], rounds=1, iterations=1
    )
    save_and_show(results_dir, "fig17", result["table"])

    by_workers = result["values"]["pagerank"]["total_ms"]
    for line in by_workers[1]:
        # More CPU workers shrink the preprocessing share of total time.
        assert by_workers[8][line] <= by_workers[1][line] * 1.05, line
