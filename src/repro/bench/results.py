"""Execution results shared by every engine.

One :class:`ExecutionResult` carries everything the paper's figures read:
final states (for cross-engine correctness checks), the machine counters,
round records for the per-round figures (Fig. 2), and the time breakdown
(Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.gpu.stats import MachineStats


@dataclass(frozen=True)
class RoundRecord:
    """Per-round observation used by Fig. 2 style plots."""

    round_index: int
    partitions_processed: int
    #: Partitions that were convergent (no active vertex) at round start.
    partitions_convergent: int
    #: Active vertices / total vertices over the *non-convergent*
    #: partitions processed this round (Fig. 2c).
    active_fraction_nonconvergent: float
    vertex_updates: int


@dataclass
class ExecutionResult:
    """Outcome of running one algorithm on one engine."""

    engine: str
    algorithm: str
    graph_name: str
    converged: bool
    rounds: int
    states: np.ndarray
    stats: MachineStats
    round_records: List[RoundRecord] = field(default_factory=list)
    #: Wall-clock seconds the *simulation itself* took (informational
    #: only — model time is what the figures compare).
    wall_seconds: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # the quantities each figure reads
    # ------------------------------------------------------------------
    @property
    def processing_time_s(self) -> float:
        """Model graph-processing time (Figs. 6/7/10/16)."""
        return self.stats.total_time_s

    @property
    def total_time_s(self) -> float:
        """Model end-to-end time incl. preprocessing (Figs. 9/17)."""
        return self.stats.total_time_with_preprocess_s

    @property
    def preprocess_time_s(self) -> float:
        """Model CPU preprocessing time (Fig. 8)."""
        return self.stats.preprocess_time_s

    @property
    def vertex_updates(self) -> int:
        """State updates performed (Fig. 11)."""
        return self.stats.vertex_updates

    @property
    def traffic_bytes(self) -> int:
        """Traffic volume (Fig. 12)."""
        return self.stats.traffic_bytes

    @property
    def data_utilization(self) -> float:
        """Loaded-data utilization ratio (Fig. 13)."""
        return self.stats.data_utilization

    @property
    def gpu_utilization(self) -> float:
        """Busy/total thread-cycle ratio (Fig. 15)."""
        return self.stats.gpu_utilization

    def breakdown(self) -> Dict[str, float]:
        """Fig. 9's time components."""
        return {
            "preprocess_s": self.stats.preprocess_time_s,
            "compute_s": self.stats.compute_time_s,
            "communication_s": self.stats.transfer_time_s,
        }

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"{self.engine:>10} {self.algorithm:<10} {self.graph_name:<9} "
            f"time={self.processing_time_s * 1e3:9.3f}ms "
            f"updates={self.vertex_updates:>9,} rounds={self.rounds:>5} "
            f"traffic={self.traffic_bytes / 1024:10.1f}KiB "
            f"util={self.gpu_utilization:5.1%} "
            f"{'converged' if self.converged else 'NOT CONVERGED'}"
        )


def states_close(
    a: ExecutionResult,
    b: ExecutionResult,
    rtol: float = 1e-3,
    atol: float = 1e-3,
) -> bool:
    """Whether two runs reached the same fixed point (cross-engine check).

    Infinities (e.g. unreachable SSSP vertices) must match exactly.
    """
    x, y = a.states, b.states
    if x.shape != y.shape:
        return False
    finite_x, finite_y = np.isfinite(x), np.isfinite(y)
    if not np.array_equal(finite_x, finite_y):
        return False
    return bool(
        np.allclose(x[finite_x], y[finite_y], rtol=rtol, atol=atol)
    )
