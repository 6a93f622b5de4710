"""Shared oracles for the test suite.

The geometry oracles evaluate the defining formulas with mpmath at 60
digits and stay independent of the library's double-precision code paths.
The distance oracle runs scipy's all-pairs shortest paths and shares no
code with the library's BFS or iFUB.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp
from scipy.sparse.csgraph import shortest_path

mp.dps = 60


def mp_distance(r1, phi1, r2, phi2):
    """Distance from the defining formula, at high precision."""
    arg = mp.cosh(r1) * mp.cosh(r2) - mp.sinh(r1) * mp.sinh(r2) * mp.cos(
        mp.mpf(phi1) - mp.mpf(phi2)
    )
    if arg < 1:
        arg = mp.mpf(1)
    return mp.acosh(arg)


def mp_theta(r, y, R):
    """Threshold angle from the defining formula, at high precision."""
    arg = (mp.cosh(y) * mp.cosh(r) - mp.cosh(R)) / (mp.sinh(y) * mp.sinh(r))
    if arg > 1:
        return mp.mpf(0)
    if arg < -1:
        return mp.pi
    return mp.acos(arg)


def apsp_eccentricities(g):
    """Each node's eccentricity within its own component, from one
    all-pairs shortest-path matrix (unit edge lengths) over the whole
    graph; pairs in different components lie at infinity and are ignored.
    A component's diameter is the largest eccentricity of its nodes."""
    dist = shortest_path(g.adjacency(), unweighted=True, directed=False)
    dist[np.isinf(dist)] = 0
    return dist.max(axis=1).astype(np.int64)
