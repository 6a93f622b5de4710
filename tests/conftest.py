"""Shared oracles for the test suite.

The geometry oracles evaluate the defining formulas with mpmath at 60
digits and stay independent of the library's double-precision code paths.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp

from hrg.geometry import TWO_PI, ModelParams, theta_approx
from hrg.sampling import MODE_FIXED, PointSet, sample_fixed

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


def mp_theta_decay(R):
    """Largest relative error of ``theta_approx`` against ``mp_theta``, times
    exp(r + y - R), over 16 excesses r + y - R from 3 to R, each split five
    ways between r and y; the analytic rate keeps it below a constant."""
    worst = 0.0
    for s in np.geomspace(3.0, R, 16):
        for split in (0.1, 0.3, 0.5, 0.7, 0.9):
            r = (R + s) * split
            y = R + s - r
            if not (0.0 < r <= R and 0.0 < y <= R):
                continue
            exact = mp_theta(r, y, R)
            rel = abs(theta_approx(r, y, R) - exact) / exact
            worst = max(worst, float(rel) * math.exp(s))
    return worst


def tied_pointset() -> PointSet:
    """A sample of 500 nodes with its angles rounded down to a grid of 64
    steps: many nodes share an angle, inside one band and across bands."""
    ps = sample_fixed(ModelParams(500, 0.75, 0.0), 3)
    phi = np.floor(ps.phi * (64 / TWO_PI)) * (TWO_PI / 64)
    return PointSet(ps.params, ps.r, phi, MODE_FIXED, 3)
