"""Fig. 14: pagerank time vs bi-directional edge ratio on webbase."""

from repro.bench.experiments import EXPERIMENTS

from conftest import save_and_show


def test_fig14_bidirectional_sweep(benchmark, results_dir):
    result = benchmark.pedantic(
        EXPERIMENTS["fig14_bidirectional"], rounds=1, iterations=1
    )
    save_and_show(results_dir, "fig14", result["table"])

    # DiGraph keeps functioning as edges become symmetric (the paper:
    # "pagerank still gets benefits from our approach, although all
    # edges are bi-directional ones").
    cells = result["cells"]["pagerank"]
    for ratio, per_engine in cells.items():
        assert per_engine["digraph"].converged, ratio
    # Symmetric graphs erode the dependency-DAG advantage: DiGraph's
    # update ratio vs async should not collapse to zero structure.
    full = cells[1.0]
    assert full["digraph"].vertex_updates > 0
