"""Ablation: the D_MAX traversal-depth bound (DESIGN.md section 6)."""

from repro.bench.experiments import EXPERIMENTS

from conftest import save_and_show


def test_ablation_dmax(benchmark, results_dir):
    result = benchmark.pedantic(
        EXPERIMENTS["ablation_dmax"], rounds=1, iterations=1
    )
    save_and_show(results_dir, "ablation_dmax", result["table"])

    lengths = [
        per_line["digraph"]
        for per_line in result["values"]["pagerank"]["avg_path_len"].values()
    ]
    # Deeper traversal bounds yield no shorter paths.
    assert lengths[-1] >= lengths[0]
    assert all(length >= 1.0 for length in lengths)
