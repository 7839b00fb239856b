"""The segment primitives against plain Python, on the awkward inputs.

``test_kernel_properties.py`` drives the 1-D forms with hypothesis on
well-behaved floats; this file pins what the lane solver leans on: the
ordered sum's per-row addition order on values where order (or a wrong
starting accumulator) shows — ``inf``, ``-inf``, ``NaN``, ``-0.0``,
``2**60`` — with empty segments wherever they can sit (the all-empty
case catches ``np.bincount``'s int64 result on no ids), on an input
where ``reduceat``'s order gives other bytes, and on 1 200 seeded random
cases; the lane-axis min / max against their 1-D forms, and
``batch_segments`` against ``indptr`` slicing.
"""

import numpy as np
import pytest

from repro.kernels.segment import (
    batch_segments,
    segment_max,
    segment_min,
    segment_sum_ordered,
)

# inf + -inf inside a sum is the point of these inputs, not a defect.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")

#: The NaN this platform's adder produces for ``inf + -inf``. IEEE-754
#: leaves the sign of ``NaN + NaN`` to the implementation (x86 returns
#: whichever operand the compiler put first), so a salted NaN with other
#: bits than a generated one would make the expected bytes depend on
#: operand order rather than on addition order.
with np.errstate(invalid="ignore"):
    NAN = float((np.array([np.inf]) + np.array([-np.inf]))[0])
SPECIALS = np.array(
    [np.inf, -np.inf, NAN, -0.0, 0.0, 2.0**60, -(2.0**60), 1.0, 1e-30]
)


def offsets_of(counts):
    seg_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=seg_offsets[1:])
    return seg_offsets


def left_fold(row, seg_offsets):
    """``((0.0 + x_0) + x_1) + ...`` per segment, in Python floats."""
    out = []
    for lo, hi in zip(seg_offsets[:-1], seg_offsets[1:]):
        acc = 0.0
        for x in row[lo:hi].tolist():
            acc = acc + x
        out.append(acc)
    return np.array(out, dtype=np.float64)


def draw_values(rng, lanes, total):
    """Mostly ordinary magnitudes (so rounding depends on the order),
    salted with the special values."""
    values = rng.standard_normal((lanes, total)) * 10.0 ** rng.integers(
        -8, 9, size=(lanes, total)
    )
    salt = rng.random((lanes, total)) < 0.2
    values[salt] = rng.choice(SPECIALS, size=int(salt.sum()))
    return values


SEGMENTATIONS = {
    "none": [],
    "one": [5],
    "one-empty": [0],
    "all-empty": [0, 0, 0],
    "empty-front": [0, 0, 3, 1, 7],
    "empty-middle": [4, 0, 0, 2, 9, 0, 1],
    "empty-end": [6, 2, 1, 0, 0],
    "all-nonempty": [3, 1, 12, 2, 2],
    "negative-zero-only": [1, 2],
}


@pytest.mark.parametrize("lanes", [1, 8])
@pytest.mark.parametrize("name", sorted(SEGMENTATIONS))
def test_ordered_sum_is_the_left_fold_bitwise(name, lanes):
    seg_offsets = offsets_of(SEGMENTATIONS[name])
    rng = np.random.default_rng(len(name) * 31 + lanes)
    values = draw_values(rng, lanes, int(seg_offsets[-1]))
    if name == "negative-zero-only":
        # 0.0 + -0.0 is +0.0: a sum seeded with x_0 instead of 0.0
        # would return -0.0 here.
        values[:] = -0.0
    result = segment_sum_ordered(values, seg_offsets)
    assert result.shape == (lanes, seg_offsets.size - 1)
    assert result.dtype == np.float64
    for i in range(lanes):
        expected = left_fold(values[i], seg_offsets)
        assert result[i].tobytes() == expected.tobytes()
        assert (
            segment_sum_ordered(values[i], seg_offsets).tobytes()
            == expected.tobytes()
        )


@pytest.mark.parametrize("lanes", [1, 8])
def test_ordered_sum_300_ragged_segments(lanes):
    """Many distinct lengths, one segment of 260, on an input where the
    addition order provably shows: ``reduceat``'s blocked order gives
    other bytes on some segments, so a fold in any order but the left
    one cannot pass."""
    rng = np.random.default_rng(300 + lanes)
    counts = rng.integers(0, 40, size=300)
    counts[[0, 150, 299]] = 0
    counts[7] = 260
    seg_offsets = offsets_of(counts)
    values = draw_values(rng, lanes, int(seg_offsets[-1]))
    expected = np.stack([left_fold(row, seg_offsets) for row in values])
    nonempty = counts > 0
    blocked = np.add.reduceat(values, seg_offsets[:-1][nonempty], axis=-1)
    # 36 of 289 segments at 1 lane, 243 of 2 304 at 8 on NumPy 2.4.
    fold_bits = expected[:, nonempty].view(np.uint64)
    assert (blocked.view(np.uint64) != fold_bits).any()
    result = segment_sum_ordered(values, seg_offsets)
    assert result.tobytes() == expected.tobytes()


def test_ordered_sum_random_differential():
    """1 200 seeded cases: 1-8 lanes, up to 16 segments, an empty segment
    forced at the front, the middle or the end in turn, values salted
    with ``SPECIALS``."""
    rng = np.random.default_rng(2024)
    for case in range(1200):
        lanes = int(rng.integers(1, 9))
        counts = rng.integers(0, 9, size=int(rng.integers(0, 17)))
        counts[rng.random(counts.size) < 0.2] = 0
        if counts.size:
            counts[(0, counts.size // 2, -1)[case % 3]] = 0
        seg_offsets = offsets_of(counts)
        values = draw_values(rng, lanes, int(seg_offsets[-1]))
        expected = np.stack([left_fold(row, seg_offsets) for row in values])
        result = segment_sum_ordered(values, seg_offsets)
        assert result.dtype == np.float64, case
        assert result.tobytes() == expected.tobytes(), case
        if lanes == 1:
            assert (
                segment_sum_ordered(values[0], seg_offsets).tobytes()
                == expected[0].tobytes()
            ), case


def test_ordered_sum_does_not_touch_its_input():
    seg_offsets = offsets_of([2, 0, 3])
    values = np.arange(10.0).reshape(2, 5)
    before = values.copy()
    segment_sum_ordered(values, seg_offsets)
    assert np.array_equal(values, before)


@pytest.mark.parametrize(
    "name", ["all-empty", "all-nonempty", "empty-front", "empty-middle",
             "empty-end", "none"]
)
@pytest.mark.parametrize("lanes", [1, 8])
def test_lane_min_max_equal_the_1d_forms_per_row(name, lanes):
    seg_offsets = offsets_of(SEGMENTATIONS[name])
    rng = np.random.default_rng(len(name) * 17 + lanes)
    # No NaN here: min / max of a NaN-bearing segment is NaN either
    # way, but its payload bits are not part of the contract.
    values = rng.standard_normal((lanes, int(seg_offsets[-1])))
    values[rng.random(values.shape) < 0.2] = np.inf
    for reduce, identity in (
        (segment_min, np.inf),
        (segment_max, -np.inf),
        (segment_max, 0.0),
    ):
        result = reduce(values, seg_offsets, identity=identity)
        assert result.shape == (lanes, seg_offsets.size - 1)
        assert result.dtype == np.float64
        for i in range(lanes):
            row = reduce(values[i], seg_offsets, identity=identity)
            assert result[i].tobytes() == row.tobytes()
            for j, (lo, hi) in enumerate(
                zip(seg_offsets[:-1], seg_offsets[1:])
            ):
                segment = values[i, lo:hi]
                pick = min if reduce is segment_min else max
                assert row[j] == (pick(segment) if hi > lo else identity)


def test_batch_segments_equals_concatenated_indptr_slices():
    # Degrees 3, 0, 2, 0, 0, 4, 1.
    indptr = np.array([0, 3, 3, 5, 5, 5, 9, 10], dtype=np.int64)
    for targets in (
        [],
        [1],
        [5],
        [1, 3, 4],
        [0, 0, 5, 0],
        [6, 1, 5, 5, 2, 4, 0],
        list(range(7)),
    ):
        positions, seg_offsets = batch_segments(
            indptr, np.diff(indptr), np.array(targets, dtype=np.int64)
        )
        slices = [np.arange(indptr[t], indptr[t + 1]) for t in targets]
        expected = (
            np.concatenate(slices) if slices else np.zeros(0, dtype=np.int64)
        )
        assert positions.dtype == np.int64
        assert np.array_equal(positions, expected)
        assert seg_offsets.tolist() == [0] + np.cumsum(
            [len(s) for s in slices], dtype=np.int64
        ).tolist()
