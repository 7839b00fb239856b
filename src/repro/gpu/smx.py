"""Streaming multiprocessor model: warps of lock-step threads.

A kernel hands an SMX a list of per-thread *work items* (edge-steps, plus
optional atomic-update counts). Threads are grouped into warps of
``threads_per_warp``; a warp's cost is the **max** over its member threads
because SIMT threads execute in lock-step — this is exactly the
load-imbalance effect Section 3.2.2 mitigates by evening out edges per
thread. The warp scheduler keeps ``warp_slots_per_smx`` warps in flight and
round-robins the rest, so SMX time is bounded below by both the heaviest
warp and the aggregate work divided by the slot count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.gpu.config import GPUSpec
from repro.gpu.stats import MachineStats


@dataclass(frozen=True)
class KernelCost:
    """Outcome of executing one kernel launch on one SMX."""

    cycles: int                 #: SMX occupancy in cycles
    busy_thread_cycles: int     #: sum of per-thread useful cycles
    total_thread_cycles: int    #: cycles x resident thread capacity


def as_work_arrays(
    work_items: Sequence[int], atomic_counts: Optional[Sequence[int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """A launch's per-thread edge-steps and atomics (lists or arrays,
    atomics optional) as parallel ``int64`` arrays."""
    work = np.asarray(work_items, dtype=np.int64)
    atomics = (
        np.zeros_like(work)
        if atomic_counts is None
        else np.asarray(atomic_counts, dtype=np.int64)
    )
    if atomics.shape != work.shape:
        raise SimulationError("atomic_counts must parallel work_items")
    return work, atomics


def thread_costs(
    spec: GPUSpec,
    edge_steps: int | np.ndarray,
    atomics: int | np.ndarray = 0,
) -> int | np.ndarray:
    """Model cycles one thread spends on its work item — or, given
    parallel integer arrays, each thread on its own."""
    if np.min(edge_steps) < 0 or np.min(atomics) < 0:
        raise SimulationError("work item counts must be non-negative")
    return edge_steps * spec.cycles_per_edge + atomics * spec.cycles_per_atomic


def price_launches(
    spec: GPUSpec, costs: np.ndarray, bounds: Sequence[int]
) -> Tuple[List[int], int]:
    """Cycles of SMX launches laid end to end.

    ``costs`` are per-thread cycles; launch ``i`` runs threads
    ``bounds[i]`` up to ``bounds[i + 1]``, none empty. Returns each
    launch's SMX cycles and the total thread-cycles of all of them
    (see :meth:`SMX.execute`).
    """
    width, slots = spec.threads_per_warp, spec.warp_slots_per_smx
    warp_starts: List[int] = []
    first_warp: List[int] = []
    for lo, hi in zip(bounds, bounds[1:]):
        first_warp.append(len(warp_starts))
        warp_starts.extend(range(lo, hi, width))
    first_warp.append(len(warp_starts))
    # Lock-step: a warp pays its heaviest member.
    warp_costs = np.maximum.reduceat(costs, warp_starts).tolist()
    cycles: List[int] = []
    total = 0
    for lo, hi in zip(first_warp, first_warp[1:]):
        warps = warp_costs[lo:hi]
        # Round-robin warp scheduling: limited by the heaviest warp and
        # by aggregate work over the available slots (ceil division).
        cycles.append(max(max(warps), -(-sum(warps) // slots)))
        # Occupancy accounting at warp granularity: idle *slots* with
        # no warp assigned are scheduling headroom, not wasted SIMT
        # lanes; what Fig. 15 measures is lock-step imbalance and
        # partially filled warps among the warps actually resident.
        total += cycles[-1] * width * min(len(warps), slots)
    return cycles, total


class SMX:
    """One simulated streaming multiprocessor."""

    def __init__(self, spec: GPUSpec, stats: MachineStats, smx_id: int = 0) -> None:
        self._spec = spec
        self._stats = stats
        self.smx_id = smx_id

    def thread_cost_cycles(
        self, edge_steps: int | np.ndarray, atomics: int | np.ndarray = 0
    ) -> int | np.ndarray:
        """:func:`thread_costs` under this SMX's spec."""
        return thread_costs(self._spec, edge_steps, atomics)

    def execute(
        self,
        work_items: Sequence[int],
        atomic_counts: Optional[Sequence[int]] = None,
    ) -> KernelCost:
        """Execute one kernel launch.

        Parameters
        ----------
        work_items:
            Edge-steps per thread, one entry per thread, in thread order
            (consecutive entries share a warp). A list or an integer array.
        atomic_counts:
            Optional contended-update counts, parallel to ``work_items``.

        Returns
        -------
        KernelCost with the SMX cycles and utilization accounting; the
        counts are also accumulated into the shared stats. Integer array
        passes throughout, so every count is exact.
        """
        work, atomics = as_work_arrays(work_items, atomic_counts)
        if work.size == 0:
            return KernelCost(0, 0, 0)
        costs = self.thread_cost_cycles(work, atomics)
        (cycles,), total = price_launches(self._spec, costs, [0, costs.size])
        busy = int(costs.sum())
        self._stats.busy_thread_cycles += busy
        self._stats.total_thread_cycles += total
        return KernelCost(
            cycles=cycles, busy_thread_cycles=busy, total_thread_cycles=total
        )

    def shared_memory_bytes(self) -> int:
        """Shared-memory capacity of this SMX (for proxy vertices)."""
        return self._spec.shared_memory_per_smx_bytes
