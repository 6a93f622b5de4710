"""Small array helpers shared across modules."""

from __future__ import annotations

import numpy as np

from .geometry import TWO_PI


def concatenated_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[k], starts[k] + counts[k])`` for all k.

    Vectorized replacement for a per-row ``arange`` loop; used to gather
    variable-length index windows.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # entry t of range k is t + (starts[k] - first output index of range k)
    shift = np.asarray(starts, dtype=np.int64) - (np.cumsum(counts) - counts)
    return np.arange(total, dtype=np.int64) + np.repeat(shift, counts)


def arc_ranges(doubled: np.ndarray, lo_val, hi_val) -> tuple[np.ndarray, np.ndarray]:
    """Index ranges ``[lo, hi)`` of the closed arcs ``[lo_val, hi_val]``.

    ``doubled`` holds k sorted angles of [0, 2pi) followed by the same
    angles + 2pi; an arc starting below 0 is looked up one turn later. Each
    range is clamped to k entries, so an arc of a full turn holds every
    angle exactly once, and position ``p`` is the angle of rank ``p % k``.
    """
    shift = np.where(lo_val < 0.0, TWO_PI, 0.0)
    lo = np.searchsorted(doubled, lo_val + shift, side="left")
    hi = np.searchsorted(doubled, hi_val + shift, side="right")
    return lo, np.minimum(hi, lo + doubled.size // 2)
