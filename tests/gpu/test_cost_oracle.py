"""The kernel cost model's array passes against the per-thread loops
they replaced.

``reference_smx_execute`` prices one launch on one SMX and
``reference_execute_balanced`` one GPU's kernel, as the list
implementation did — one Python iteration per thread, a ``while`` loop
per oversized item, ``sorted`` over indices. They are the differential
oracle for :func:`~repro.gpu.smx.price_launches` and for
``Machine.compute_round``: for any work list the array form must charge
the same cycles, the same elapsed model seconds and the same
``busy_thread_cycles`` / ``total_thread_cycles``. Everything is integer
arithmetic, so "same" is ``==``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.gpu.config import GPUSpec, MachineSpec
from repro.gpu.machine import Machine
from repro.gpu.smx import price_launches, thread_costs
from repro.gpu.stats import MachineStats


# ----------------------------------------------------------------------
# the list implementation, verbatim apart from taking spec and stats
# ----------------------------------------------------------------------
def reference_smx_execute(spec, stats, work_items, atomic_counts=None):
    """One SMX launch: returns (cycles, busy, total) and charges stats."""
    if not work_items:
        return 0, 0, 0
    width = spec.threads_per_warp
    costs = [
        int(work_items[i]) * spec.cycles_per_edge
        + (int(atomic_counts[i]) if atomic_counts is not None else 0)
        * spec.cycles_per_atomic
        for i in range(len(work_items))
    ]
    warp_costs = [
        max(costs[i : i + width]) for i in range(0, len(costs), width)
    ]
    slots = spec.warp_slots_per_smx
    total_warp_cycles = sum(warp_costs)
    cycles = max(max(warp_costs), -(-total_warp_cycles // slots))
    busy = sum(costs)
    resident_warps = min(len(warp_costs), slots)
    total = cycles * spec.threads_per_warp * resident_warps
    stats.busy_thread_cycles += busy
    stats.total_thread_cycles += total
    return cycles, busy, total


def reference_execute_balanced(spec, stats, work_items, atomic_counts=None):
    """One GPU kernel: returns the compute seconds (no stream overlap)."""
    if not work_items:
        return 0.0
    threshold = spec.work_split_threshold
    split_items, split_atomics = [], []
    for i, item in enumerate(work_items):
        item = int(item)
        atomics_here = (
            int(atomic_counts[i]) if atomic_counts is not None else 0
        )
        while item > threshold:
            split_items.append(threshold)
            split_atomics.append(0)
            item -= threshold
        split_items.append(item)
        split_atomics.append(atomics_here)
    order = sorted(range(len(split_items)), key=lambda i: -split_items[i])
    work = [split_items[i] for i in order]
    atomics = [split_atomics[i] for i in order]
    count = len(work)
    block = max(spec.threads_per_warp, -(-count // spec.num_smxs))
    max_cycles = 0
    for start in range(0, count, block):
        cycles, _, _ = reference_smx_execute(
            spec,
            stats,
            work[start : start + block],
            atomics[start : start + block],
        )
        max_cycles = max(max_cycles, cycles)
    return max_cycles / spec.clock_hz


# ----------------------------------------------------------------------
# strategies: sizes and values around every boundary of the model
# ----------------------------------------------------------------------
#: Small enough that a few hundred threads cross every boundary: warps
#: of 4, 3 SMXs (so blocks of ``max(4, ceil(n / 3))``), split at 8.
SPEC = GPUSpec(
    num_smxs=3,
    threads_per_warp=4,
    warp_slots_per_smx=2,
    work_split_threshold=8,
    cycles_per_edge=7,
    cycles_per_atomic=11,
)
THRESHOLD = SPEC.work_split_threshold

#: Zeros, items at / just over / several times the split threshold.
work_values = st.one_of(
    st.integers(0, 3),
    st.sampled_from(
        [THRESHOLD - 1, THRESHOLD, THRESHOLD + 1, 2 * THRESHOLD,
         2 * THRESHOLD + 1, 5 * THRESHOLD, 5 * THRESHOLD + 3]
    ),
    st.integers(0, 6 * THRESHOLD),
)
#: Counts around a warp (4), around ``num_smxs`` blocks of one warp (12)
#: and past it, where blocks stop being warp multiples.
work_lists = st.one_of(
    st.lists(work_values, min_size=0, max_size=14),
    st.lists(work_values, min_size=10, max_size=40),
)


@st.composite
def launches(draw):
    work = draw(work_lists)
    if draw(st.booleans()):
        return work, None
    atomics = draw(
        st.lists(
            st.integers(0, 3), min_size=len(work), max_size=len(work)
        )
    )
    return work, atomics


def _one_gpu_round(work, atomics):
    """``work`` as the one GPU's launch of a one-GPU machine: the wave's
    wall seconds and the machine's stats."""
    machine = Machine(MachineSpec(num_gpus=1, gpu=SPEC))
    wall = machine.compute_round(
        {0: work}, None if atomics is None else {0: atomics}
    )
    return wall, machine.stats


@settings(max_examples=300, deadline=None)
@given(launches())
def test_price_launches_matches_the_per_thread_loop(launch):
    """One launch on one SMX, in the caller's thread order (no split,
    no sort): the cycles, busy and total thread-cycles of the loop."""
    work, atomics = launch
    if not work:
        return  # an empty launch is priced by compute_round (test_smx)
    costs = thread_costs(
        SPEC,
        np.asarray(work, dtype=np.int64),
        np.asarray([0] * len(work) if atomics is None else atomics, np.int64),
    )
    (cycles,), total = price_launches(SPEC, costs, [0, costs.size])
    busy = int(costs.sum())
    assert (cycles, busy, total) == reference_smx_execute(
        SPEC, MachineStats(), work, atomics
    )
    assert type(cycles) is int and type(total) is int


@settings(max_examples=400, deadline=None)
@given(launches(), st.booleans())
def test_a_one_gpu_round_matches_the_per_thread_loop(launch, as_arrays):
    work, atomics = launch
    ref_stats = MachineStats()
    expected = reference_execute_balanced(SPEC, ref_stats, work, atomics)
    if as_arrays:
        # What the vectorized bulk-sync round hands over: an integer
        # array of degrees and a boolean array of changed flags.
        work = np.asarray(work, dtype=np.int64)
        if atomics is not None:
            atomics = np.asarray(atomics, dtype=np.int64)
    elapsed, stats = _one_gpu_round(work, atomics)
    assert elapsed == expected
    assert type(stats.busy_thread_cycles) is int
    assert stats.busy_thread_cycles == ref_stats.busy_thread_cycles
    assert stats.total_thread_cycles == ref_stats.total_thread_cycles


@pytest.mark.parametrize("count", [1, 3, 4, 5, 11, 12, 13, 24, 25, 100])
@pytest.mark.parametrize("with_atomics", [False, True])
def test_every_count_around_a_warp_and_the_smx_blocks(count, with_atomics):
    """Deterministic sweep of the sizes the strategies only sample:
    one short warp, one full, one over; ``num_smxs`` one-warp blocks
    exactly, one thread more (blocks of 5: every block's last warp is
    partial), and blocks of several warps."""
    work = [(i * 5) % (3 * THRESHOLD + 2) for i in range(count)]
    atomics = [i % 3 for i in range(count)] if with_atomics else None
    ref_stats = MachineStats()
    elapsed, stats = _one_gpu_round(work, atomics)
    assert elapsed == reference_execute_balanced(
        SPEC, ref_stats, work, atomics
    )
    assert stats.busy_thread_cycles == ref_stats.busy_thread_cycles
    assert stats.total_thread_cycles == ref_stats.total_thread_cycles


def test_equal_pieces_keep_the_callers_thread_order():
    """Sixteen threads of equal work, two of them carrying atomics, in
    blocks of 6, 6 and 4: in the caller's order the two heavy threads
    fill both warps of the first SMX; with the ties reversed they land
    on the second and third SMX. An unstable sort, or one that reverses
    ties, moves ``total_thread_cycles``."""
    work = [5] * 16
    atomics = [0] * 16
    atomics[3] = atomics[4] = 9
    ref_stats, reversed_stats = MachineStats(), MachineStats()
    elapsed, stats = _one_gpu_round(work, atomics)
    assert elapsed == reference_execute_balanced(
        SPEC, ref_stats, work, atomics
    )
    assert stats.total_thread_cycles == ref_stats.total_thread_cycles
    reference_execute_balanced(SPEC, reversed_stats, work, atomics[::-1])
    assert reversed_stats.total_thread_cycles != ref_stats.total_thread_cycles


def test_an_item_at_the_threshold_is_not_split():
    """``>`` not ``>=``: an item of exactly ``work_split_threshold`` is
    one thread, and its atomics stay with it."""
    _, stats = _one_gpu_round([THRESHOLD], [2])
    one_thread = (
        THRESHOLD * SPEC.cycles_per_edge + 2 * SPEC.cycles_per_atomic
    )
    assert stats.busy_thread_cycles == one_thread
    # One resident warp, its cost the single thread's.
    assert stats.total_thread_cycles == one_thread * SPEC.threads_per_warp


def test_negative_work_is_rejected_not_split():
    with pytest.raises(SimulationError):
        _one_gpu_round([3, -1], None)
    with pytest.raises(SimulationError):
        _one_gpu_round([3, 1], [0, -2])
    with pytest.raises(SimulationError):
        _one_gpu_round(np.array([3, 1]), np.array([1]))


# ----------------------------------------------------------------------
# a whole wave: Machine.compute_round against a loop over the GPUs
# ----------------------------------------------------------------------
NUM_GPUS = 4


def reference_compute_round(spec, stats, dead, work, atomics, barrier):
    """``Machine.compute_round`` as a per-GPU loop (no faults, no
    queued transfers): returns the wave's wall seconds."""
    elapsed = {}
    for gpu_id, items in work.items():
        if gpu_id in dead:
            continue
        elapsed[gpu_id] = reference_execute_balanced(
            spec, stats, items, atomics.get(gpu_id) if atomics else None
        )
    wall = max(elapsed.values(), default=0.0)
    if barrier and wall > 0:
        for gpu_id in range(NUM_GPUS):
            if gpu_id in dead:
                continue
            waited = wall - elapsed.get(gpu_id, 0.0)
            if waited > 0:
                stats.total_thread_cycles += (
                    int(waited * spec.clock_hz)
                    * spec.threads_per_smx
                    * spec.num_smxs
                )
    stats.compute_time_s += wall
    return wall


@st.composite
def waves(draw):
    """Per-GPU launches for some of the GPUs (in any order), one GPU
    possibly dead with an empty list, atomics for all or none."""
    dead = draw(st.sampled_from([None, *range(NUM_GPUS)]))
    gpus = draw(st.permutations(range(NUM_GPUS)))
    gpus = gpus[: draw(st.integers(0, NUM_GPUS))]
    with_atomics = draw(st.booleans())
    work, atomics = {}, {}
    for gpu_id in gpus:
        items = [] if gpu_id == dead else draw(work_lists)
        work[gpu_id] = items
        atomics[gpu_id] = draw(
            st.lists(st.integers(0, 3), min_size=len(items),
                     max_size=len(items))
        )
    return dead, work, atomics if with_atomics else None


@settings(max_examples=300, deadline=None)
@given(waves(), st.booleans(), st.booleans())
def test_compute_round_matches_a_loop_over_the_gpus(wave, barrier, as_arrays):
    dead, work, atomics = wave
    machine = Machine(MachineSpec(num_gpus=NUM_GPUS, gpu=SPEC))
    if dead is not None:
        machine.kill_gpu(dead)
    ref_stats = MachineStats()
    expected = reference_compute_round(
        SPEC, ref_stats, {dead}, work, atomics, barrier
    )
    if as_arrays:
        work = {g: np.asarray(w, dtype=np.int64) for g, w in work.items()}
    assert machine.compute_round(work, atomics, barrier=barrier) == expected
    stats = machine.stats
    assert stats.compute_time_s == ref_stats.compute_time_s
    assert type(stats.busy_thread_cycles) is int
    assert stats.busy_thread_cycles == ref_stats.busy_thread_cycles
    assert stats.total_thread_cycles == ref_stats.total_thread_cycles
