"""Hyperbolic disc geometry in native polar coordinates.

Distances, connection thresholds, the inverse radial CDF, and area
measures for the threshold graph model on a disc of radius R. A point is
(r, phi) with r the true hyperbolic distance to the disc origin and phi an
angle in [0, 2*pi). There is no point object: functions take the coordinates
as scalars or numpy arrays and broadcast elementwise unless stated
otherwise; all of them are pure and safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

# Largest disc radius ModelParams accepts. The edge test scales
# sinh(r) * sinh(y) by a versine of up to 2, and 2 sinh(R)^2 overflows a
# double from R = 355.24 on; past that, an inf or NaN distance decides edges.
MAX_RADIUS = 355.0

# Largest node count ModelParams accepts: every node id fits in an int32.
MAX_NODES = 2**31 - 1

__all__ = [
    "TWO_PI",
    "MAX_RADIUS",
    "MAX_NODES",
    "ModelParams",
    "MonteCarloEstimate",
    "pair_distances",
    "edge_mask",
    "theta_exact",
    "theta_approx",
    "mu_ball_origin_exact",
    "radial_icdf",
    "mu_lens_approx",
    "mu_monte_carlo",
]


@dataclass(frozen=True)
class ModelParams:
    """Model constants: target node count ``n``, radial density exponent
    ``alpha``, and radius offset ``C``. The disc radius ``R = 2 ln n + C``
    is derived and kept consistent with the inputs.

    Degree power laws with exponent between 2 and 3 correspond to
    ``1/2 < alpha < 1``, but any finite positive alpha is accepted.
    ``ValueError`` rejects n outside [1, ``MAX_NODES``], a non-finite
    alpha or C, R < 0, R above ``MAX_RADIUS``, where the edge test's sinh
    products overflow a double, and alpha * R >= 700, where
    cosh(alpha * R) overflows.
    """

    n: int
    alpha: float
    C: float
    R: float = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"node count must be at least 1, got {self.n}")
        if self.n > MAX_NODES:
            raise ValueError(f"node count must be below 2**31, got {self.n}")
        if not (0.0 < self.alpha < math.inf and math.isfinite(self.C)):
            raise ValueError(f"need finite alpha > 0 and finite C, got {self.alpha}, {self.C}")
        radius = 2.0 * math.log(self.n) + self.C
        if not 0.0 <= radius <= MAX_RADIUS:
            raise ValueError(
                f"need 0 <= R <= {MAX_RADIUS} (beyond it sinh(r) * sinh(y) in the edge test "
                f"overflows a double), got R = 2 ln n + C = {radius}"
            )
        if not self.alpha * radius < 700.0:
            raise ValueError(f"need alpha * R < 700, got R = 2 ln n + C = {radius}")
        object.__setattr__(self, "R", radius)

    @property
    def degree_exponent(self) -> float:
        """Theoretical exponent of the degree-distribution tail."""
        if self.alpha >= 0.5:
            return 2.0 * self.alpha + 1.0
        return 2.0

    @property
    def mean_degree(self) -> float:
        """Theoretical asymptotic average degree; diverges at alpha = 1/2."""
        a = self.alpha
        if a <= 0.5:
            return math.inf
        return 2.0 * a * a * math.exp(-self.C / 2.0) / (math.pi * (a - 0.5) ** 2)

    @classmethod
    def from_radius(cls, radius: float, alpha: float) -> "ModelParams":
        """Params with C = 0 whose disc radius is as close to ``radius`` as an
        integer node count allows; beyond 2 ln ``MAX_NODES`` (about 42.97),
        n = ``MAX_NODES`` and C makes up the rest. Useful for measure-level
        studies where only R and alpha matter."""
        n = max(1, round(math.exp(radius / 2.0)))
        if n <= MAX_NODES:
            return cls(n=n, alpha=alpha, C=0.0)
        return cls(n=MAX_NODES, alpha=alpha, C=radius - 2.0 * math.log(MAX_NODES))


def _ret(x: np.ndarray) -> float | np.ndarray:
    return float(x) if np.ndim(x) == 0 else x


def _cosh_distance(r_a, phi_a, r_b, phi_b):
    """cosh of the pairwise distance, grouped as
    ``cosh(r_a - r_b) + 2 sin^2(dphi / 2) * sinh(r_a) * sinh(r_b)``.

    The grouping is a sum of non-negative increments, which avoids the
    catastrophic cancellation the textbook ``cosh*cosh - sinh*sinh*cos``
    form suffers at small angles; the versine ``2 sin^2(dphi / 2)`` keeps
    full relative precision where ``1 - cos dphi`` would cancel. ``abs``
    keeps the expression bitwise symmetric under argument swap.
    """
    r_a = np.asarray(r_a, dtype=float)
    phi_a = np.asarray(phi_a, dtype=float)
    spread = 2.0 * np.sin(np.abs(phi_a - phi_b) / 2.0) ** 2
    # grouping the sinh product keeps the expression bitwise symmetric
    return np.cosh(np.abs(r_a - r_b)) + spread * (np.sinh(r_a) * np.sinh(r_b))


def pair_distances(r_a, phi_a, r_b, phi_b):
    """Hyperbolic distances for parallel coordinate arrays. The inverse-cosh
    argument is clamped to >= 1 to absorb rounding for near-coincident points."""
    arg = np.maximum(_cosh_distance(r_a, phi_a, r_b, phi_b), 1.0)
    return _ret(np.arccosh(arg))


def edge_mask(r_a, phi_a, r_b, phi_b, R):
    """Boolean connection test for coordinate arrays: distance <= R, with
    ties at exactly R counting as connected. It compares on the cosh scale,
    since inverting the cosh near the threshold is ill-conditioned."""
    return _cosh_distance(r_a, phi_a, r_b, phi_b) <= np.cosh(R)


def theta_exact(r, y, R):
    """Maximal relative angle at which nodes with radii r and y are still
    adjacent, in [0, pi]: the exact inverse of the edge test's versine,
    ``2 asin(sqrt((cosh R - cosh|r - y|) / (2 sinh r sinh y)))``.

    Returns 0 when no angle connects the radii and pi when every angle
    does; the root's argument is clamped to [0, 1] to absorb rounding at
    those extremes. Symmetric in r and y. Zero radii are rejected (the
    expression divides by sinh of each radius).
    """
    r = np.asarray(r, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(r == 0.0) or np.any(y == 0.0):
        raise ValueError("theta_exact is undefined at radius 0")
    arg = (np.cosh(R) - np.cosh(np.abs(r - y))) / (2.0 * (np.sinh(r) * np.sinh(y)))
    return _ret(2.0 * np.arcsin(np.sqrt(np.clip(arg, 0.0, 1.0))))


def theta_approx(r, y, R):
    """Leading-order connection angle ``2 * exp((R - r - y) / 2)``.

    Requires ``y >= R - r``; outside that range the expansion does not
    apply and a ValueError is raised.
    """
    r = np.asarray(r, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y < R - r):
        raise ValueError("theta_approx requires y >= R - r")
    return _ret(2.0 * np.exp((R - r - y) / 2.0))


def mu_ball_origin_exact(r, params: ModelParams):
    """Exact measure of the ball of radius r around the origin."""
    a = params.alpha
    r = np.asarray(r, dtype=float)
    return _ret((np.cosh(a * r) - 1.0) / (math.cosh(a * params.R) - 1.0))


def radial_icdf(u, params: ModelParams):
    """Inverse radial CDF: maps uniform u in [0, 1] to a radius in [0, R].

    Exact inverse of :func:`mu_ball_origin_exact`; ``ModelParams`` keeps
    alpha * R below 700, so cosh(alpha * R) is finite.
    """
    a = params.alpha
    u = np.asarray(u, dtype=float)
    return _ret(np.arccosh(1.0 + u * (math.cosh(a * params.R) - 1.0)) / a)


def mu_lens_approx(r, m, params: ModelParams):
    """Leading term of the measure of the lens reachable from a node at
    radius r and lying within the ball of radius R - m around the origin:
    ``2 alpha / (pi (alpha - 1/2)) * exp(-alpha m - (r - m) / 2)``.

    Undefined at alpha = 1/2 where the prefactor has a pole.
    """
    a = params.alpha
    if a == 0.5:
        raise ValueError("lens approximation has a pole at alpha = 1/2")
    r = np.asarray(r, dtype=float)
    m = np.asarray(m, dtype=float)
    lead = 2.0 * a / (math.pi * (a - 0.5))
    return _ret(lead * np.exp(-a * m - (r - m) / 2.0))


# Elements one block of :func:`mu_monte_carlo` or of
# :func:`hrg.graphgen.build_naive` holds at once, and the queries of one
# block of :func:`hrg.graphgen.build_banded`; it bounds their memory
# and does not change their results. Its float64 temporaries (128 KiB)
# stay within glibc's default mmap threshold, so they are reused from the
# heap; 2^16 faulted in about 22,700 fresh pages per build_naive call at
# n = 2000.
ARRAY_BLOCK = 1 << 14


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    std_error: float
    hits: int
    samples: int


def mu_monte_carlo(
    region: Callable[[np.ndarray, np.ndarray], np.ndarray],
    params: ModelParams,
    samples: int,
    seed: int = 0,
) -> MonteCarloEstimate:
    """Estimate the measure of ``region`` by sampling the model density.

    ``region`` receives parallel (radii, angles) arrays and returns a
    boolean mask; any predicate written with numpy operations works
    unchanged for single points and for batches. Returns the hit fraction
    with its binomial standard error.

    The angles and the radii come from two generators spawned from
    ``seed``, one per coordinate, and are drawn ``ARRAY_BLOCK`` at a time,
    so the samples do not depend on the block size.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    angular, radial = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    hits = 0
    for a in range(0, samples, ARRAY_BLOCK):
        b = min(ARRAY_BLOCK, samples - a)
        phi = angular.uniform(0.0, TWO_PI, b)
        radii = radial_icdf(radial.random(b), params)
        hits += int(np.count_nonzero(region(radii, phi)))
    p = hits / samples
    err = math.sqrt(p * (1.0 - p) / samples)
    return MonteCarloEstimate(value=p, std_error=err, hits=hits, samples=samples)
