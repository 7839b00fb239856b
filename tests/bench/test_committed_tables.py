"""The committed figure tables are what the tree produces.

``benchmarks/results/*.txt`` is what EXPERIMENTS.md quotes; the tables
went stale once (PR 2 moved the `digraph` columns and nobody reran the
suite until PR 23). The pagerank-only figures share one memoized
18-cell sweep, cheap enough for tier 1; the CI ``figure-tables`` job
regenerates the rest.
"""

from pathlib import Path

import pytest

from repro.bench.experiments import EXPERIMENTS

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

#: Experiment name -> the file ``benchmarks/test_*.py`` saves it under.
PINNED = {
    "table1": "table1",
    "fig8_preprocessing": "fig8",
    "fig9_breakdown": "fig9",
    "fig12_traffic": "fig12",
    "fig13_data_utilization": "fig13",
    "fig15_gpu_utilization": "fig15",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_committed_table_is_regenerated_byte_for_byte(name):
    committed = (RESULTS / f"{PINNED[name]}.txt").read_text()
    # 0.5 is the scale the tables are committed at, whatever
    # REPRO_BENCH_SCALE says.
    assert EXPERIMENTS[name](scale=0.5)["table"] + "\n" == committed
