"""Segmented array primitives over CSR/CSC offsets.

These are the building blocks of the vectorized batch kernels: given a
batch of target vertices, :func:`batch_segments` turns the per-vertex
CSR/CSC slices into one concatenated index array with segment offsets,
and the ``segment_*`` reductions fold each segment to one value.

Bit-equivalence contract
------------------------
The scalar engines fold gather values with a left-to-right loop
(``acc = accumulate(acc, g)``). ``np.add.reduceat`` does **not**
reproduce that order for long segments (NumPy blocks the inner loop), so
:func:`segment_sum_ordered` is one weighted ``np.bincount`` over each
value's segment id: ``bincount`` runs ``out[id[i]] += w[i]`` in index
order from zeroed bins, so per segment that is exactly
``((0.0 + x_0) + x_1) + ...`` — the same IEEE-754 operations in the
same order as the scalar loop, and sums agree *bit for bit*. Min/max
are order-insensitive (exact under any association), so they use
``reduceat`` with empty-segment masking.

Every reduction folds the **last** axis of ``values``; leading axes (one
row per program of a kernel built from a program sequence, see
:mod:`repro.kernels.base`) share the segmentation, and row ``i``
undergoes exactly the IEEE-754 operations, in the same order, of the
1-D call on ``values[i]``. There is one implementation per reduction,
so the contract above is stated — and tested — once.

All reductions require ``seg_offsets[-1] == len(values)`` — the offsets
must tile the value array exactly, which :func:`batch_segments`
guarantees by construction.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def batch_segments(
    indptr: np.ndarray, degree: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate the ``indptr`` slices of ``targets``; ``degree`` is
    ``np.diff(indptr)``, cached by the caller (the graph's degrees).

    Returns ``(positions, seg_offsets)``: ``positions`` indexes the data
    arrays parallel to ``indptr`` (e.g. CSC sources/weights), segment
    ``i`` occupying ``positions[seg_offsets[i]:seg_offsets[i + 1]]`` in
    the slice's original order.
    """
    targets = np.asarray(targets, dtype=np.int64)
    starts = indptr[targets]
    counts = degree[targets]
    seg_offsets = np.zeros(targets.size + 1, dtype=np.int64)
    # ``np.add.accumulate`` is ``cumsum`` minus its method wrapper.
    np.add.accumulate(counts, out=seg_offsets[1:])
    positions = (starts - seg_offsets[:-1]).repeat(counts)
    positions += np.arange(int(seg_offsets[-1]), dtype=np.int64)
    return positions, seg_offsets


def interleave_segments(
    a_vals: np.ndarray,
    a_offsets: np.ndarray,
    b_vals: np.ndarray,
    b_offsets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two parallel segmentations into ``a_i ++ b_i`` per segment.

    Used by the symmetric programs (WCC, k-core) whose per-vertex scalar
    iteration order is in-edges then out-edges (gather) or out-edges then
    in-edges (dependents).
    """
    a_counts = np.diff(a_offsets)
    b_counts = np.diff(b_offsets)
    counts = a_counts + b_counts
    seg_offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=seg_offsets[1:])
    out = np.empty(int(seg_offsets[-1]), dtype=a_vals.dtype)
    a_intra = np.arange(a_vals.size, dtype=np.int64) - np.repeat(
        a_offsets[:-1], a_counts
    )
    out[np.repeat(seg_offsets[:-1], a_counts) + a_intra] = a_vals
    b_intra = np.arange(b_vals.size, dtype=np.int64) - np.repeat(
        b_offsets[:-1], b_counts
    )
    out[
        np.repeat(seg_offsets[:-1] + a_counts, b_counts) + b_intra
    ] = b_vals
    return out, seg_offsets


def segment_sum_ordered(
    values: np.ndarray, seg_offsets: np.ndarray
) -> np.ndarray:
    """Left-to-right segment sums, bit-identical to the scalar fold.

    One ``np.bincount``: value ``j`` of row ``r`` carries id ``r * nseg
    + seg(j)``, and ``bincount`` adds the weights into their bins one by
    one in index order starting from ``0.0`` — per segment the scalar
    fold ``((0.0 + x_0) + x_1) + ...``. With no segments or no values
    the zeros are built directly: ``bincount`` of an empty id array
    returns int64, not float64.
    """
    counts = seg_offsets[1:] - seg_offsets[:-1]
    nseg = counts.size
    lead = values.shape[:-1]
    if nseg == 0 or values.size == 0:
        return np.zeros(lead + (nseg,), dtype=np.float64)
    ids = np.arange(nseg).repeat(counts)
    bins = values.size // values.shape[-1] * nseg
    if lead:
        ids = (ids + np.arange(0, bins, nseg)[:, None]).ravel()
    out = np.bincount(ids, weights=values.ravel(), minlength=bins)
    return out.reshape(lead + (nseg,))


def _segment_reduceat(
    ufunc: np.ufunc,
    values: np.ndarray,
    seg_offsets: np.ndarray,
    identity: float,
) -> np.ndarray:
    starts = seg_offsets[:-1]
    nonempty = seg_offsets[1:] > starts
    filled = np.count_nonzero(nonempty)
    if filled == starts.size:
        return ufunc.reduceat(values, starts, axis=-1, dtype=np.float64)
    out = np.full(
        values.shape[:-1] + (starts.size,), identity, dtype=np.float64
    )
    if filled:
        # Transposed, the mask indexes the first axis: NumPy's fast
        # path for 1-D ``values``, no slower with lanes.
        out.T[nonempty] = ufunc.reduceat(
            values, starts[nonempty], axis=-1
        ).T
    return out


def segment_min(
    values: np.ndarray,
    seg_offsets: np.ndarray,
    identity: float = np.inf,
) -> np.ndarray:
    """Per-segment minimum; empty segments yield ``identity``."""
    return _segment_reduceat(np.minimum, values, seg_offsets, identity)


def segment_max(
    values: np.ndarray,
    seg_offsets: np.ndarray,
    identity: float = -np.inf,
) -> np.ndarray:
    """Per-segment maximum; empty segments yield ``identity``."""
    return _segment_reduceat(np.maximum, values, seg_offsets, identity)
