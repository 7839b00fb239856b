"""Ablation: one-feature-off sweeps (hot paths, merge, proxies, ...)."""

from repro.bench.experiments import EXPERIMENTS

from conftest import save_and_show


def test_ablation_feature_toggles(benchmark, results_dir):
    result = benchmark.pedantic(
        EXPERIMENTS["ablation_features"], rounds=1, iterations=1
    )
    save_and_show(results_dir, "ablation_features", result["table"])

    results = {
        label: per_line["digraph"]
        for label, per_line in result["cells"]["pagerank"].items()
    }
    # Disabling proxies must not absorb anything.
    assert results["no-proxy"].stats.proxy_absorbed == 0
    # All configurations converge to completion.
    for label, res in results.items():
        assert res.converged, label
