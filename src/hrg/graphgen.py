"""Threshold-graph construction over a point set.

``build_naive`` tests every pair and serves as the ground-truth oracle.
``build_banded`` partitions the disc into unit-thickness annuli (bands),
sorts each band by angle, and for every band pair tests only the
candidates inside a certified angular window, which keeps the expected
candidate count near-linear for 1/2 < alpha < 1. Both builders evaluate
the identical connection expression, so their edge sets agree exactly,
including ties at the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import concatenated_ranges
from .geometry import TWO_PI, edge_mask
from .sampling import PointSet

__all__ = [
    "Graph",
    "BandIndex",
    "layer_of_radius",
    "theta_upper",
    "build_naive",
    "build_banded",
]

# Multiplier on the quadratic correction term of the window bound. The
# window must never exclude a true edge; soundness of this value is
# exercised by randomized tests against the exact threshold angle.
WINDOW_SLACK = 1.0

# Band pairs with i + j >= R - margin get the full circle: the expansion
# behind the window bound degrades when the bands' inner radii sum to
# less than margin beyond R.
FULL_CIRCLE_MARGIN = 2.0

# Absolute widening of the window. For deep band pairs the analytic slack
# of the bound shrinks below double-precision noise in the exact threshold
# angle (~1e-11); this keeps the window sound against rounding as well.
FLOAT_GUARD = 1e-9


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph over a point set.

    ``edges`` is an (m, 2) array in canonical order: each row is
    (min id, max id), rows sorted by that pair. ``indptr``/``indices``
    form a CSR adjacency with each node's neighbor list sorted.
    """

    pointset: PointSet
    indptr: np.ndarray
    indices: np.ndarray
    edges: np.ndarray

    @property
    def n(self) -> int:
        return len(self.pointset)

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    @classmethod
    def from_edge_array(cls, ps: PointSet, us, vs) -> "Graph":
        """Build the canonical structure from endpoint arrays (one entry
        per undirected edge, no self-loops, no duplicates).

        Both orders come from one sort of packed keys: ``lo * n + hi`` for
        the edge rows, ``src * n + dst`` for the half-edges of the CSR.
        """
        n = len(ps)
        base = max(n, 1)  # n = 0 admits no edge; keeps the divisor non-zero
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        lo, hi = np.divmod(np.sort(np.minimum(us, vs) * base + np.maximum(us, vs)), base)
        edges = np.column_stack((lo, hi))
        indices = np.sort(np.concatenate((lo * base + hi, hi * base + lo))) % base
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n), out=indptr[1:])
        for arr in (edges, indices, indptr):
            arr.setflags(write=False)
        return cls(pointset=ps, indptr=indptr, indices=indices, edges=edges)


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
        R = ps.params.R
        nbands = band_count(R)
        band_of = layer_of_radius(ps.r, R)
        ids: list = []
        angles: list = []
        for i in range(1, nbands + 1):
            members = np.nonzero(band_of == i)[0]
            order = np.argsort(ps.phi[members], kind="stable")
            members = members[order]
            ids.append(members)
            angles.append(ps.phi[members])
        return cls(count=nbands, ids=ids, angles=angles)


def theta_upper(band_i: int, band_j: int, R: float) -> float:
    """Certified upper bound on the connection angle between any node of
    band i and any node of band j.

    Uses the bands' inner radii (R - i, R - j), which minimize r + y over
    the pair and hence maximize the true threshold angle; central pairs
    fall back to pi.
    """
    if band_i + band_j >= R - FULL_CIRCLE_MARGIN:
        return math.pi
    t = math.exp((band_i + band_j - R) / 2.0)
    return min(math.pi, 2.0 * t * (1.0 + WINDOW_SLACK * t * t) + FLOAT_GUARD)


def _empty_graph(ps: PointSet) -> Graph:
    empty = np.empty(0, dtype=np.int64)
    return Graph.from_edge_array(ps, empty, empty)


def build_naive(ps: PointSet) -> Graph:
    """All-pairs reference builder, O(n^2); the correctness oracle."""
    n = len(ps)
    if n < 2:
        return _empty_graph(ps)
    r, phi, R = ps.r, ps.phi, ps.params.R
    cols = np.arange(n)
    us_parts = []
    vs_parts = []
    block = max(1, 8_000_000 // n)
    for a in range(0, n - 1, block):
        b = min(a + block, n - 1)
        rows = np.arange(a, b)
        mask = edge_mask(r[rows, None], phi[rows, None], r[None, :], phi[None, :], R)
        mask &= cols[None, :] > rows[:, None]
        ui, vi = np.nonzero(mask)
        us_parts.append(rows[ui])
        vs_parts.append(vi)
    us = np.concatenate(us_parts) if us_parts else np.empty(0, dtype=np.int64)
    vs = np.concatenate(vs_parts) if vs_parts else np.empty(0, dtype=np.int64)
    return Graph.from_edge_array(ps, us, vs)


def _window_candidates(centers, ids_i, sorted_angles, sorted_ids, width):
    """Candidate pairs (u from band i, v from band j) with angular
    separation at most ``width``, via binary search on the doubled angle
    array. Requires width < pi so no candidate appears twice."""
    doubled_vals = np.concatenate((sorted_angles, sorted_angles + TWO_PI))
    doubled_ids = np.concatenate((sorted_ids, sorted_ids))
    lo_val = centers - width
    hi_val = centers + width
    shift = np.where(lo_val < 0.0, TWO_PI, 0.0)
    lo = np.searchsorted(doubled_vals, lo_val + shift, side="left")
    hi = np.searchsorted(doubled_vals, hi_val + shift, side="right")
    counts = hi - lo
    cu = np.repeat(ids_i, counts)
    cv = doubled_ids[concatenated_ranges(lo, counts)]
    return cu, cv


def build_banded(ps: PointSet) -> Graph:
    """Band/window builder; produces exactly the edge set of
    :func:`build_naive`.

    For every band pair only nodes within an angular window of half-width
    :func:`theta_upper` are tested exactly. The window overestimates the
    true threshold, so no edge is lost; the exact test discards the rest.
    """
    n = len(ps)
    if n < 2:
        return _empty_graph(ps)
    r, phi, R = ps.r, ps.phi, ps.params.R
    bands = BandIndex.build(ps)
    us_parts = []
    vs_parts = []
    for i in range(1, bands.count + 1):
        ids_i = bands.ids[i - 1]
        if ids_i.size == 0:
            continue
        for j in range(i, bands.count + 1):
            ids_j = bands.ids[j - 1]
            if ids_j.size == 0:
                continue
            width = theta_upper(i, j, R)
            if width >= math.pi:
                if i == j:
                    iu, iv = np.triu_indices(ids_i.size, k=1)
                    cu, cv = ids_i[iu], ids_i[iv]
                else:
                    cu = np.repeat(ids_i, ids_j.size)
                    cv = np.tile(ids_j, ids_i.size)
            else:
                cu, cv = _window_candidates(
                    bands.angles[i - 1], ids_i, bands.angles[j - 1], ids_j, width
                )
                if i == j:
                    keep = cu < cv
                    cu, cv = cu[keep], cv[keep]
            if cu.size == 0:
                continue
            hit = edge_mask(r[cu], phi[cu], r[cv], phi[cv], R)
            if np.any(hit):
                us_parts.append(cu[hit])
                vs_parts.append(cv[hit])
    us = np.concatenate(us_parts) if us_parts else np.empty(0, dtype=np.int64)
    vs = np.concatenate(vs_parts) if vs_parts else np.empty(0, dtype=np.int64)
    return Graph.from_edge_array(ps, us, vs)
