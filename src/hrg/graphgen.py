"""Threshold-graph construction over a point set.

``build_naive`` tests every pair and serves as the ground-truth oracle.
``build_banded`` partitions the disc into unit-thickness annuli (bands),
lays the nodes out by band and then by angle, and makes one pass per band:
every node of that band or of a band inside it looks up its candidates in
the band within a certified angular window, which keeps the expected
candidate count near-linear for 1/2 < alpha < 1. Querying from the inner
bands pays off because bands shrink geometrically toward the centre in
expectation. The queries run in blocks of ``ARRAY_BLOCK``, and the exact
test reads the contiguous coordinate arrays. Central band pairs get a
window of half-width pi, which is the whole band. Both builders evaluate
the identical connection expression, so their edge sets agree exactly,
including ties at the threshold.

``Graph.from_edge_array`` orders the CSR with one sort. The CSR is the only
stored adjacency: ``Graph.edges`` derives the canonical edges from it as two
id arrays, the form ``Graph.from_edge_array`` takes. Only this module reads
the CSR, other modules call ``Graph.neighbors``.
The array helpers ``concatenated_ranges``, ``arc_ranges`` and ``angle_order``
live here too.
The module runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import ARRAY_BLOCK, TWO_PI, edge_mask
from .sampling import PointSet

__all__ = [
    "Graph",
    "BandIndex",
    "layer_of_radius",
    "theta_upper",
    "build_naive",
    "build_banded",
]

# Band pairs with i + j >= R - margin get the full circle: the expansion
# behind the window bound degrades when the bands' inner radii sum to
# less than margin beyond R.
FULL_CIRCLE_MARGIN = 2.0

# Absolute widening of the window. For deep band pairs the analytic slack
# of the bound shrinks below double-precision noise in the exact threshold
# angle (~1e-11); this keeps the window sound against rounding as well.
FLOAT_GUARD = 1e-9


def concatenated_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[k], starts[k] + counts[k])`` for all k.

    Vectorized replacement for a per-row ``arange`` loop; gathers the
    neighbor lists of ``Graph.neighbors`` and the builder's candidate windows.
    """
    counts = np.asarray(counts, dtype=np.int64)
    # entry t of range k is t + (starts[k] - first output index of range k)
    shift = np.asarray(starts, dtype=np.int64) - (np.cumsum(counts) - counts)
    return np.arange(counts.sum(), dtype=np.int64) + np.repeat(shift, counts)


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


def angle_order(phi: np.ndarray) -> np.ndarray:
    """``np.argsort(phi, kind="stable")``, from the default sort.

    Distinct angles have one sorted order, which any sort finds; the stable
    sort, several times slower on floats, runs only when two angles are equal.
    """
    order = np.argsort(phi)
    ranked = phi[order]
    if np.any(ranked[1:] == ranked[:-1]):
        return np.argsort(phi, kind="stable")
    return order


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph over a point set.

    ``indptr``/``indices`` form a CSR adjacency with each node's neighbor
    list sorted, each edge stored once from either end. It is the only
    stored adjacency; :meth:`edges` derives the canonical edges. A graph
    built from a node count has no point set until :meth:`with_points`.
    """

    pointset: PointSet | None
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def m(self) -> int:
        return self.indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    def neighbors(self, nodes) -> np.ndarray:
        """Neighbor lists of one node id or an array of ids, concatenated
        in the order given."""
        nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        starts = self.indptr[nodes]
        return self.indices[concatenated_ranges(starts, self.indptr[nodes + 1] - starts)]

    def edges(self, lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The (smaller ids, larger ids) int64 arrays, sorted by that pair, of
        the edges whose smaller end lies in nodes ``[lo, hi)``: the
        ``src < dst`` half of the CSR's order. Consecutive node ranges give
        consecutive edges."""
        hi = self.n if hi is None else hi
        dst = self.indices[self.indptr[lo] : self.indptr[hi]]
        src = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(self.indptr[lo : hi + 1]))
        forward = src < dst
        return src.compress(forward), dst.compress(forward)

    def with_points(self, ps: PointSet) -> "Graph":
        """This graph over the point set ``ps``, which must hold n points."""
        if len(ps) != self.n:
            raise ValueError(f"graph has {self.n} nodes, point set {len(ps)} points")
        return replace(self, pointset=ps)

    @classmethod
    def from_edge_array(cls, ps: PointSet | int, us, vs) -> "Graph":
        """Build the canonical structure from endpoint arrays (one entry
        per undirected edge, no self-loops, no duplicates), over a point
        set or over a node count, with no points.

        One sort of the packed half-edge keys ``src * n + dst`` orders the
        CSR. The keys are packed and reduced to ``dst`` in place, so the 2m
        keys are the only array of that size held beside the inputs.
        """
        n, ps = (ps, None) if isinstance(ps, int) else (len(ps), ps)
        base = max(n, 1)  # n = 0 admits no edge; keeps the divisor non-zero
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        keys = np.concatenate((us, vs))
        keys *= base
        keys[: us.size] += vs
        keys[us.size :] += us
        keys.sort()
        indices = np.remainder(keys, base, out=keys)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(us, minlength=n) + np.bincount(vs, minlength=n), out=indptr[1:])
        for arr in (indices, indptr):
            arr.setflags(write=False)
        return cls(pointset=ps, indptr=indptr, indices=indices)


def layer_of_radius(r, R: float):
    """Band/layer index of a radius: band i covers radii in (R-i, R-i+1],
    so the outermost band is 1 and indices grow toward the origin."""
    r = np.asarray(r, dtype=float)
    out = np.floor(R - r).astype(np.int64) + 1
    return int(out) if out.ndim == 0 else out


def band_count(R: float) -> int:
    return int(math.floor(R)) + 1


@dataclass(frozen=True, eq=False)
class BandIndex:
    """Per-band node ids sorted by angle.

    Band i spans radii (R - i, R - i + 1] (see :func:`layer_of_radius`), so
    the ``count`` bands are disjoint and cover [0, R]. ``ids[i-1]`` and
    ``angles[i-1]`` hold band i, aligned.
    """

    count: int
    ids: list
    angles: list

    @classmethod
    def build(cls, ps: PointSet) -> "BandIndex":
        """Sort by angle once, then split by band with a stable sort of the
        int16 band labels, which keeps each band in angle order."""
        nbands = band_count(ps.params.R)
        order = angle_order(ps.phi)
        labels = layer_of_radius(ps.r, ps.params.R).astype(np.int16)[order]
        ids = order[np.argsort(labels, kind="stable")]
        cuts = np.cumsum(np.bincount(labels, minlength=nbands + 1)[1:-1])
        return cls(count=nbands, ids=np.split(ids, cuts), angles=np.split(ps.phi[ids], cuts))


def theta_upper(band_i: int, band_j: int, R: float) -> float:
    """Certified upper bound on the connection angle between any node of
    band i and any node of band j.

    Uses the bands' inner radii (R - i, R - j), which minimize r + y over
    the pair and hence maximize the true threshold angle; central pairs
    fall back to pi. The bound is 2t(1 + t^2) with t = e^((i + j - R)/2),
    widened by ``FLOAT_GUARD``. The window must never exclude a true edge;
    randomized tests and ``hrg verify`` check this bound against the exact
    threshold angle.
    """
    if band_i + band_j >= R - FULL_CIRCLE_MARGIN:
        return math.pi
    t = math.exp((band_i + band_j - R) / 2.0)
    return min(math.pi, 2.0 * t * (1.0 + t * t) + FLOAT_GUARD)


def build_naive(ps: PointSet) -> Graph:
    """All-pairs reference builder, O(n^2); the correctness oracle. It
    tests about ``ARRAY_BLOCK`` pairs per block of rows, against the
    columns from the block's first row on."""
    n = len(ps)
    r, phi, R = ps.r, ps.phi, ps.params.R
    us_parts = [np.empty(0, dtype=np.int64)]
    vs_parts = [np.empty(0, dtype=np.int64)]
    block = max(1, ARRAY_BLOCK // max(n, 1))
    for a in range(0, n - 1, block):
        b = min(a + block, n - 1)
        rows = np.arange(a, b)
        cols = np.arange(a, n)
        mask = edge_mask(r[rows, None], phi[rows, None], r[None, a:], phi[None, a:], R)
        mask &= cols[None, :] > rows[:, None]
        ui, vi = np.nonzero(mask)
        us_parts.append(rows[ui])
        vs_parts.append(cols[vi])
    return Graph.from_edge_array(ps, np.concatenate(us_parts), np.concatenate(vs_parts))


def _band_passes(ps: PointSet) -> tuple[list, list]:
    """Edge end parts of :func:`build_banded`, one pass per band. The laid-out
    arrays and the last block die on return, before the CSR build's peak."""
    R = ps.params.R
    bands = BandIndex.build(ps)
    count, sizes = bands.count, [ids.size for ids in bands.ids]
    ids, phi = np.concatenate(bands.ids), np.concatenate(bands.angles)
    del bands  # the per-band views would keep a second copy alive
    r = ps.r[ids]
    band = np.repeat(np.arange(1, count + 1, dtype=np.int16), sizes)
    starts = np.cumsum([0, *sizes]).tolist()
    us_parts = [np.empty(0, dtype=np.int64)]
    vs_parts = [np.empty(0, dtype=np.int64)]
    for i in range(1, count + 1):
        first, end = starts[i - 1], starts[i]
        if first == end:
            continue
        doubled = np.concatenate((phi[first:end], phi[first:end] + TWO_PI))
        widths = np.array([theta_upper(i, j, R) for j in range(i, count + 1)])
        for q in range(first, ids.size, ARRAY_BLOCK):
            stop = min(q + ARRAY_BLOCK, ids.size)
            width = widths[band[q:stop] - i]
            lo, hi = arc_ranges(doubled, phi[q:stop] - width, phi[q:stop] + width)
            # candidate pairs as positions: a the query, b in band i
            a = np.repeat(np.arange(q, stop), hi - lo)
            b = concatenated_ranges(lo, hi - lo) % (end - first) + first
            if q < end:  # a pair inside band i is tested once, from its lower position
                keep = (a < b) | (a >= end)
                a, b = a[keep], b[keep]
            hit = edge_mask(r[a], phi[a], r[b], phi[b], R)
            us_parts.append(ids[a[hit]])
            vs_parts.append(ids[b[hit]])
    return us_parts, vs_parts


def build_banded(ps: PointSet) -> Graph:
    """Band/window builder; produces exactly the edge set of
    :func:`build_naive`.

    The nodes are laid out by band and then by angle, so band i and the
    bands j > i inside it form one suffix. One pass per band i walks that
    suffix in blocks of ``ARRAY_BLOCK`` queries: each node of band j looks
    up the nodes of band i within an angular window of half-width
    :func:`theta_upper` (i, j), read from a per-pass table by j; a window
    of half-width pi is the whole band. Only those candidates are tested
    exactly, a pair inside band i once, and node ids are looked up for the
    edges alone. The window overestimates the true threshold, so no edge
    is lost; the exact test discards the rest.
    """
    us_parts, vs_parts = _band_passes(ps)
    us = np.concatenate(us_parts)
    del us_parts
    vs = np.concatenate(vs_parts)
    del vs_parts
    return Graph.from_edge_array(ps, us, vs)
