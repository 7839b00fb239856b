"""Round-trace reporting: the Fig. 2-style per-round views as text.

Turns an :class:`~repro.bench.results.ExecutionResult`'s round records
into CSV lines and compact ASCII sparklines, so convergence behavior can
be eyeballed from a terminal (active fractions collapsing, partition
counts draining — the pictures Fig. 2(a-c) plots).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.bench.results import ExecutionResult

_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render values as a fixed-width ASCII sparkline."""
    if not values:
        return ""
    values = list(values)
    if len(values) > width:
        # Downsample by taking bucket maxima (peaks matter).
        bucket = len(values) / width
        values = [
            max(values[int(i * bucket) : max(int((i + 1) * bucket), int(i * bucket) + 1)])
            for i in range(width)
        ]
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    chars = []
    for value in values:
        level = int((value - low) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)


def round_trace_summary(result: ExecutionResult) -> str:
    """Human-readable trace: sparklines over the run's rounds."""
    records = result.round_records
    if not records:
        return f"{result.engine}/{result.algorithm}: no round records"
    processed = [float(r.partitions_processed) for r in records]
    convergent = [float(r.partitions_convergent) for r in records]
    active = [r.active_fraction_nonconvergent for r in records]
    updates: List[float] = []
    previous = 0
    for rec in records:
        updates.append(float(rec.vertex_updates - previous))
        previous = rec.vertex_updates
    label = f"{result.engine}/{result.algorithm}/{result.graph_name}"
    return "\n".join(
        [
            f"{label}: {len(records)} recorded rounds",
            f"  processed  |{sparkline(processed)}| "
            f"max={int(max(processed))}",
            f"  convergent |{sparkline(convergent)}| "
            f"max={int(max(convergent))}",
            f"  active%    |{sparkline(active)}| "
            f"max={max(active):.2f}",
            f"  new updates|{sparkline(updates)}| "
            f"max={int(max(updates))}",
        ]
    )
