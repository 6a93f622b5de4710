"""Seeded point-set generation.

Two samplers share one per-point distribution: ``sample_fixed`` places
exactly n points, ``sample_poisson`` first draws the count from a Poisson
law with mean n. ``poisson_counts`` draws many such counts, and
``disjointness_check`` many point sets, each from one generator of its
own seed in array calls: trial t is the t-th count, or the t-th
consecutive run of points.
Reproducibility contract: identical (params, mode, seed) yields identical
arrays within this implementation. The generator is
numpy's PCG64, which is documented, seedable, and splittable; bit-exact
agreement across implementations is not promised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import MAX_NODES, TWO_PI, ModelParams, radial_icdf

MODE_FIXED = "fixed"
MODE_POISSON = "poisson"

__all__ = [
    "MODE_FIXED",
    "MODE_POISSON",
    "PointSet",
    "sample_fixed",
    "sample_poisson",
    "poisson_counts",
    "disjointness_check",
]


@dataclass(frozen=True, eq=False)
class PointSet:
    """Sampled points with provenance.

    Radii and angles are parallel read-only arrays; point i is
    ``(r[i], phi[i])``. Instances are immutable and safe to share across
    threads.
    """

    params: ModelParams
    r: np.ndarray
    phi: np.ndarray
    mode: str
    seed: int

    def __post_init__(self) -> None:
        r = np.ascontiguousarray(np.asarray(self.r, dtype=float))
        phi = np.ascontiguousarray(np.asarray(self.phi, dtype=float))
        if r.ndim != 1 or r.shape != phi.shape:
            raise ValueError("radius and angle arrays must be 1-d and parallel")
        if self.mode not in (MODE_FIXED, MODE_POISSON):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_FIXED and r.size != self.params.n:
            raise ValueError(
                f"fixed mode requires exactly n={self.params.n} points, got {r.size}"
            )
        if r.size:
            # min and max propagate NaN, and every comparison with NaN is
            # false, so a NaN coordinate fails these tests
            if not (float(r.min()) >= 0.0 and float(r.max()) <= self.params.R):
                raise ValueError("radius outside [0, R]")
            if not (float(phi.min()) >= 0.0 and float(phi.max()) < TWO_PI):
                raise ValueError("angle outside [0, 2*pi)")
        r.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)

    def __len__(self) -> int:
        return self.r.size


def _draw_points(params: ModelParams, count: int, rng: np.random.Generator):
    """Radii and angles of ``count`` points drawn from ``rng``: all the
    angles, then all the radii. The samplers and :func:`disjointness_check`
    draw their points here."""
    phi = rng.uniform(0.0, TWO_PI, count)
    phi[phi >= TWO_PI] -= TWO_PI  # guard against rounding at the high end
    radii = radial_icdf(rng.random(count), params)
    return radii, phi


def _sample(params: ModelParams, seed: int, mode: str) -> PointSet:
    """One seeded point set: n points, or in Poisson mode as many as the
    generator's first draw. A draw above ``MAX_NODES`` raises ``ValueError``
    before any point is drawn."""
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(params.n)) if mode == MODE_POISSON else params.n
    if count > MAX_NODES:
        raise ValueError(f"Poisson count {count} is above the node limit 2**31 - 1")
    return PointSet(params, *_draw_points(params, count, rng), mode, int(seed))


def sample_fixed(params: ModelParams, seed: int) -> PointSet:
    """Place exactly n points: angles uniform, radii via the inverse CDF."""
    return _sample(params, seed, MODE_FIXED)


def sample_poisson(params: ModelParams, seed: int) -> PointSet:
    """Poisson variant: the point count is Poisson with mean n, then each
    point is drawn exactly as in :func:`sample_fixed`. A count above
    ``MAX_NODES`` raises ``ValueError``."""
    return _sample(params, seed, MODE_POISSON)


def poisson_counts(params: ModelParams, trials: int, seed: int = 0) -> np.ndarray:
    """Point counts of ``trials`` Poisson draws with mean n, all from one
    generator seeded with ``seed``: ``default_rng(seed).poisson(n, trials)``.
    Entry 0 equals ``len(sample_poisson(params, seed))``; no point is drawn."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    return np.random.default_rng(seed).poisson(params.n, trials).astype(np.int64, copy=False)


def disjointness_check(
    region_a: Callable[[np.ndarray, np.ndarray], np.ndarray],
    region_b: Callable[[np.ndarray, np.ndarray], np.ndarray],
    params: ModelParams,
    trials: int,
    seed: int = 0,
    mode: str = MODE_POISSON,
) -> float:
    """Empirical Pearson correlation between the per-trial point counts of
    two regions.

    For disjoint regions under the Poisson sampler the counts are
    independent, so the correlation should be near zero; the fixed-count
    sampler makes counts of complementary regions anti-correlated. Regions
    are vectorized predicates as in :func:`hrg.geometry.mu_monte_carlo`.
    The caller is responsible for actual disjointness.

    All trials come from one generator seeded with ``seed``: first the
    counts (the draw of :func:`poisson_counts`, or n per trial in fixed
    mode), then the angles and the radii of all points at once. Trial t
    owns the t-th consecutive run of ``counts[t]`` points.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials for a correlation")
    if mode not in (MODE_FIXED, MODE_POISSON):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    counts = rng.poisson(params.n, trials) if mode == MODE_POISSON else np.full(trials, params.n)
    radii, phi = _draw_points(params, int(counts.sum()), rng)
    trial = np.repeat(np.arange(trials), counts)
    counts_a = np.bincount(trial, weights=region_a(radii, phi), minlength=trials)
    counts_b = np.bincount(trial, weights=region_b(radii, phi), minlength=trials)
    return float(np.corrcoef(counts_a, counts_b)[0, 1])
