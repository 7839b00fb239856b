"""Streaming multiprocessor model: warps of lock-step threads.

A kernel hands an SMX a list of per-thread *work items* (edge-steps, plus
optional atomic-update counts). Threads are grouped into warps of
``threads_per_warp``; a warp's cost is the **max** over its member threads
because SIMT threads execute in lock-step — this is exactly the
load-imbalance effect Section 3.2.2 mitigates by evening out edges per
thread. The warp scheduler keeps ``warp_slots_per_smx`` warps in flight and
round-robins the rest, so SMX time is bounded below by both the heaviest
warp and the aggregate work divided by the slot count.

:func:`thread_costs` prices a thread and :func:`price_launches` a run of
SMX launches; :func:`repro.gpu.machine.balanced_cycles` deals each GPU's
threads to its SMXs.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.gpu.config import GPUSpec


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
    launch's SMX cycles and the total thread-cycles of all of them: each
    launch's cycles times the threads of its resident warps.
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
