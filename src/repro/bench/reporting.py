"""Table/series formatting matching the paper's figures.

Most figures normalize against Gunrock (our bulk-sync baseline); these
helpers print the same rows/series so a run's output reads like the
corresponding figure.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.bench.results import ExecutionResult


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence],
    col_width: int = 11,
) -> str:
    """Fixed-width text table with a title rule."""
    lines = [title, "-" * max(len(title), col_width * (len(columns)))]
    header = "".join(f"{c:>{col_width}}" for c in columns)
    lines.append(header)
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(f"{value:>{col_width}.3f}")
            else:
                cells.append(f"{str(value):>{col_width}}")
        lines.append("".join(cells))
    return "\n".join(lines)


def normalized_matrix(
    results: Mapping[str, Mapping[str, ExecutionResult]],
    metric: Callable[[ExecutionResult], float],
    baseline: Optional[str],
    invert: bool = False,
) -> Dict[str, Dict[str, float]]:
    """``results[graph][engine]`` -> metric normalized to ``baseline``.

    This is the shape of Figs. 6/7/8/11/12/13: one bar group per graph,
    one bar per engine, relative to the named baseline engine.
    ``invert`` divides the baseline's value by the engine's instead —
    a speedup when the metric is a time (Fig. 10). Without a baseline
    the values are the metric's own (Fig. 15).
    """
    out: Dict[str, Dict[str, float]] = {}
    for graph, per_engine in results.items():
        values = {e: metric(result) for e, result in per_engine.items()}
        if baseline is not None:
            base = values[baseline]
            for engine, value in values.items():
                over, under = (base, value) if invert else (value, base)
                values[engine] = over / under if under else float("nan")
        out[graph] = values
    return out


def matrix_table(
    title: str,
    matrix: Mapping[str, Mapping[str, float]],
    engines: Sequence[str],
) -> str:
    """Render a graph-by-engine matrix."""
    rows: List[List] = []
    for graph, per_engine in matrix.items():
        rows.append([graph] + [per_engine.get(e, float("nan")) for e in engines])
    return format_table(title, ["graph"] + list(engines), rows)


def series_table(
    title: str,
    x_label: str,
    xs: Sequence,
    series: Mapping[str, Sequence[float]],
) -> str:
    """Render line-plot data (Figs. 14/16/17) as a table."""
    columns = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [series[name][i] for name in series])
    return format_table(title, columns, rows)
