"""Self-check suite behind ``hrg verify``.

A check that the tests also run is a public function that takes its sizes
and seeds and returns what it measures; ``run_verify`` formats its line.

Deterministic checks (geometry identities, builder equivalence, diameter
oracle agreement, forced-edge and clique properties, file round-trips)
must all hold; any failure is a defect. Statistical checks (sampler
goodness-of-fit, Poisson moments, independence, Monte Carlo measure
agreement) report p-values or margins and only fail below the 0.1% level.
The core lines read ``ComponentReport``'s core record, and the lens
measure's region is ``edge_mask`` itself.

The suite needs numpy alone. Its three p-values have closed forms: the
Pelz-Good expansion of the Kolmogorov distribution and the chi-square
tail at an odd number of degrees of freedom. The tests hold them, and
the all-pairs oracle, against a reference statistics library.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from ._fork import fork_call
from .analysis import check_core_clique, check_underpass, component_report, exact_diameter
from .geometry import (
    ModelParams,
    MonteCarloEstimate,
    edge_mask,
    mu_ball_origin_exact,
    mu_lens_approx,
    mu_monte_carlo,
    pair_distances,
    radial_icdf,
    theta_approx,
    theta_exact,
)
from .files import read_coords, read_edges, write_coords, write_edges
from .graphgen import Graph, band_count, build_banded, build_naive, theta_upper
from .sampling import PointSet, disjointness_check, poisson_counts, sample_fixed, sample_poisson

__all__ = [
    "CheckResult", "StatResult", "run_verify", "THETA_DECAY_BOUND", "LENS_SLACK",
    "apsp_eccentricities",
    "theta_upper_excess", "banded_naive_mismatches", "diameter_mismatches",
    "radial_ks", "angle_chisquare", "fixed_vs_poisson_ks", "lens_measure",
    "distance_identities", "threshold_consistency", "ball_measure_gap",
]

# Empirical ceiling on (relative error of the leading-order connection
# angle) * exp(r + y - R). The maximum reads 0.169 over verify's range
# (r + y - R <= 12) and 0.834 over the tests' mpmath range (up to R = 30).
THETA_DECAY_BOUND = 1.0

# Additive slack constant for the lens-measure comparison, multiplying
# exp(-alpha * r).
LENS_SLACK = 1.0

P_FLOOR = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    kind: str  # "deterministic" or "probabilistic"
    passed: bool
    detail: str
    p_value: float | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" (p={self.p_value:.3g})" if self.p_value is not None else ""
        return f"{status} [{self.kind[:4]}] {self.name}: {self.detail}{suffix}"


def _det(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, "deterministic", bool(passed), detail)


def _prob(name: str, p: float, detail: str) -> CheckResult:
    return CheckResult(name, "probabilistic", p >= P_FLOOR, detail, p_value=float(p))


def distance_identities(r, phi, r2, phi2, r3, phi3) -> tuple[bool, float, float]:
    """(whether d(a, b) equals d(b, a) bit for bit, the largest |d(a, origin)
    - r| and the largest triangle excess d(a, c) - d(a, b) - d(b, c)) over
    the triples a = (r, phi), b = (r2, phi2), c = (r3, phi3)."""
    d_ab = pair_distances(r, phi, r2, phi2)
    symmetric = bool(np.array_equal(d_ab, pair_distances(r2, phi2, r, phi)))
    radial = float(np.abs(pair_distances(r, phi, 0.0, 0.0) - r).max())
    d_ac = pair_distances(r, phi, r3, phi3)
    triangle = float((d_ac - (d_ab + pair_distances(r2, phi2, r3, phi3))).max())
    return symmetric, radial, triangle


def threshold_consistency(rng, samples: int) -> tuple[int, bool]:
    """Draws ``samples`` radius pairs at n = 10^4 (alpha 0.75, C 0) from
    ``rng`` and keeps those whose ``theta_exact`` lies more than 1e-7 inside
    (0, pi); returns (pairs kept, whether ``edge_mask`` joins every kept pair
    1e-9 below its threshold angle and none 1e-9 above)."""
    R = ModelParams(10_000, 0.75, 0.0).R
    r = rng.uniform(1.0, R, samples)
    y = np.maximum(rng.uniform(1.0, R, samples), R - r + 1e-6)
    theta = np.asarray(theta_exact(r, y, R))
    usable = (theta > 1e-7) & (theta < math.pi - 1e-7)
    r, y, theta = r[usable], y[usable], theta[usable]
    below = edge_mask(r, 0.0, y, theta - 1e-9, R)
    above = edge_mask(r, 0.0, y, theta + 1e-9, R)
    return r.size, bool(below.all() and not above.any())


def _check_theta_decay() -> CheckResult:
    params = ModelParams.from_radius(30.0, 0.75)
    R = params.R
    worst = 0.0
    for s in np.geomspace(3.0, 12.0, 12):
        for split in (0.5, 0.3, 0.7, 0.1, 0.9):
            r = (R + s) * split
            y = R + s - r
            if not (0.0 < r <= R and 0.0 < y <= R):
                continue
            exact = theta_exact(r, y, R)
            approx = theta_approx(r, y, R)
            ratio = abs(approx - exact) / exact * math.exp(s)
            worst = max(worst, ratio)
    ok = worst <= THETA_DECAY_BOUND
    return _det(
        "geometry/theta-approx-decay",
        ok,
        f"max relerr*exp(r+y-R) = {worst:.3f} <= {THETA_DECAY_BOUND}",
    )


def ball_measure_gap(radius: float) -> float:
    """Relative gap between ``mu_ball_origin_exact`` at r = R/2 and its
    asymptotic form exp(-alpha R/2), on the disc of radius ``radius`` at
    alpha 0.75."""
    params = ModelParams.from_radius(radius, 0.75)
    approx = math.exp(-params.alpha * params.R / 2.0)
    return abs(mu_ball_origin_exact(params.R / 2.0, params) - approx) / approx


def theta_upper_excess(rng, samples_per_pair: int) -> tuple[int, float]:
    """(band pairs tested, largest excess of ``theta_exact`` over
    ``theta_upper``) over every band pair below a full circle at n = 2^11,
    10^4 and 2 * 10^5, at its inner corner and ``samples_per_pair`` radius
    pairs drawn from ``rng``. The window is sound when the excess is <= 0.

    Each n tests all its pairs in one ``theta_exact`` call. Pair by pair,
    in (i, j) order, ``rng`` gives the pair's r samples, then its y
    samples, each scaled as ``Generator.uniform`` over the band would."""
    worst = -math.inf
    pairs = 0
    for n in (2**11, 10**4, 2 * 10**5):
        R = ModelParams(n, 0.75, 0.0).R
        top = band_count(R)
        ij = [(i, j) for i in range(1, top + 1) for j in range(i, top + 1)]
        bound = np.array([theta_upper(i, j, R) for i, j in ij])
        below = bound < math.pi
        lo = (R - np.array(ij, dtype=float)[below])[:, :, None]
        u = rng.random((lo.shape[0], 2, samples_per_pair))
        radii = np.concatenate((lo + 1e-12, lo + ((lo + 1.0) - lo) * u), axis=2)
        theta = theta_exact(radii[:, 0], radii[:, 1], R)
        worst = max(worst, float((theta.max(axis=1) - bound[below]).max()))
        pairs += lo.shape[0]
    return pairs, worst


def banded_naive_mismatches(rng, sizes) -> int:
    """Builds one graph per entry of ``sizes`` (alpha 0.75, C 0), drawing
    each seed in order from ``rng``, with both builders; returns how many
    edge sets differ."""
    mismatches = 0
    for n in sizes:
        ps = sample_fixed(ModelParams(n, 0.75, 0.0), int(rng.integers(2**63)))
        if not all(map(np.array_equal, build_banded(ps).edges(), build_naive(ps).edges())):
            mismatches += 1
    return mismatches


def apsp_eccentricities(g: Graph) -> np.ndarray:
    """Each node's eccentricity within its own component (pairs in
    different components are ignored), so a component's diameter is the
    largest of its nodes'. A dense breadth-first search from every node at
    once, one boolean matrix product ``frontier @ adj > 0`` per level, that
    shares no code with the library's BFS or iFUB. It holds n x n matrices:
    an oracle for graphs of a few hundred nodes."""
    adj = np.zeros((g.n, g.n), dtype=np.float32)
    small, large = g.edges()
    adj[small, large] = adj[large, small] = 1.0
    sources = np.arange(g.n)
    frontier = adj  # each row: the nodes at distance 1 from its source
    reached = (adj > 0) | np.eye(g.n, dtype=bool)
    eccentricities = np.zeros(g.n, dtype=np.int64)
    depth = 1
    while (live := frontier.any(axis=1)).any():
        sources, frontier, reached = sources[live], frontier[live], reached[live]
        eccentricities[sources] = depth
        # only the frontier's own rows of adj can add a node
        inner = frontier.any(axis=0)
        step = (frontier[:, inner] @ adj[inner] > 0) & ~reached
        reached |= step
        frontier = step.astype(np.float32)
        depth += 1
    return eccentricities


def diameter_mismatches(rng, count: int) -> int:
    """Draws n from [10, 301) and a seed from ``rng`` per graph (alpha
    0.75, C 0) until ``count`` giants of two or more nodes are checked;
    returns how many giants' ``exact_diameter`` or ``component_report``
    diameter differs from the all-pairs oracle's."""
    mismatches = checked = 0
    while checked < count:
        n = int(rng.integers(10, 301))
        g = build_banded(sample_fixed(ModelParams(n, 0.75, 0.0), int(rng.integers(2**63))))
        comps = component_report(g)
        nodes = np.flatnonzero(comps.labels == comps.giant_label)
        if nodes.size < 2:
            continue
        oracle = apsp_eccentricities(g)[nodes].max()
        if exact_diameter(g, nodes) != oracle or comps.giant_diameter != oracle:
            mismatches += 1
        checked += 1
    return mismatches


def _check_underpass_and_core(n: int, trials: int, seed: int) -> list[CheckResult]:
    ps = sample_fixed(ModelParams(n, 0.75, 0.0), seed)
    g = build_banded(ps)
    result = check_underpass(g, trials, seed=seed)
    comps = component_report(g)
    diameter, depth = comps.giant_diameter, comps.core_depth
    if depth is None:
        detail = (
            f"precondition unmet: core of size {comps.core_size} is empty or "
            "outside the giant, no bound applies"
        )
    else:
        detail = f"giant diameter {diameter} vs 2*core_depth+1 = {2 * depth + 1} (depth {depth})"
    bound = _det("analysis/core-depth-bound", depth is None or diameter <= 2 * depth + 1, detail)
    return [
        _det(
            "analysis/underpass",
            result.violations == 0 and result.tested == trials,
            f"{result.tested} triples, {result.violations} violations (n={n})",
        ),
        _det("analysis/core-clique", comps.core_clique, f"core size {comps.core_size}"),
        CheckResult(
            "analysis/core-in-giant",
            "probabilistic",
            comps.core_in_giant,
            f"core size {comps.core_size} inside giant={comps.core_in_giant}",
            p_value=None,
        ),
        bound,
    ]


def _check_file_round_trip(seed: int) -> CheckResult:
    ps = sample_fixed(ModelParams(500, 0.75, 0.0), seed)
    g = build_banded(ps)
    coord_buf = io.StringIO()
    write_coords(coord_buf, ps)
    coord_buf.seek(0)
    ps_back = read_coords(coord_buf)
    edge_buf = io.StringIO()
    write_edges(edge_buf, g)
    edge_buf.seek(0)
    edges_back = read_edges(edge_buf, len(ps_back))
    edges = g.edges()
    ok = (
        np.array_equal(ps.r, ps_back.r)
        and np.array_equal(ps.phi, ps_back.phi)
        and all(map(np.array_equal, build_banded(ps_back).edges(), edges))
        and all(map(np.array_equal, edges_back, edges))
    )
    return _det("files/round-trip", ok, f"n=500, m={g.m}, exact round-trip={ok}")


def _check_input_files(coords_path: str, edges_path: str) -> list[CheckResult]:
    with open(coords_path, "r", encoding="utf-8") as fh:
        ps = read_coords(fh)
    with open(edges_path, "r", encoding="utf-8") as fh:
        file_graph = Graph.from_edge_array(ps, *read_edges(fh, len(ps)))
    rebuilt = build_banded(ps)
    # both in canonical order, so the file's row order and ends do not count
    match = all(map(np.array_equal, rebuilt.edges(), file_graph.edges()))
    results = [
        _det(
            "files/input-consistency",
            match,
            f"edge file matches rebuild from coordinates={match} "
            f"(file m={file_graph.m}, rebuilt m={rebuilt.m})",
        )
    ]
    result = check_underpass(file_graph, 20_000, seed=0)
    results.append(
        _det(
            "files/input-underpass",
            result.violations == 0,
            f"{result.tested} triples, {result.violations} violations",
        )
    )
    results.append(
        _det("files/input-core-clique", check_core_clique(file_graph), "core pairwise adjacency")
    )
    return results


@dataclass(frozen=True)
class StatResult:
    """A test statistic and its p-value."""

    statistic: float
    pvalue: float


def _kolmogorov_sf(n: int, x: float) -> float:
    """P(D_n > x) for the two-sided one-sample Kolmogorov statistic D_n: 1
    minus the Pelz-Good (1976) expansion of its CDF to the 1/n^(3/2) term,
    clipped to [0, 1]. Simard & L'Ecuyer (J. Stat. Softw. 39(11), 2011)
    recommend it for large n; for n >= 25,000 it agrees with the exact
    distribution to 2e-6 relative wherever p >= 1e-6."""
    if x <= 0.0:
        return 1.0
    if x >= 1.0:
        return 0.0
    z = math.sqrt(n) * x
    z2, z4, z6 = z**2, z**4, z**6
    pi2 = math.pi**2
    if pi2 / 8.0 / z2 > 708.0:  # the CDF underflows
        return 1.0
    k = np.arange(math.ceil(16.0 * z / math.pi), 0, -1, dtype=float)
    m2 = (2.0 * k - 1.0) ** 2  # the odd squares
    coefficients = np.array([
        np.ones_like(m2),
        pi2 / 4.0 * m2 - z2,
        6.0 * z6 + 2.0 * z4 + (2.0 * z4 - 5.0 * z2) * pi2 / 4.0 * m2
        + pi2**2 * (1.0 - 2.0 * z2) / 16.0 * m2**2,
        -30.0 * z6 - 90.0 * z**8 + pi2 * (135.0 * z4 - 96.0 * z6) / 4.0 * m2
        + pi2**2 * (212.0 * z4 - 60.0 * z2) / 16.0 * m2**2
        + pi2**3 * (5.0 - 30.0 * z2) / 64.0 * m2**3,
    ])
    terms = coefficients @ np.exp(-pi2 * m2 / (8.0 * z2))
    terms /= np.array([z, 6.0 * z4, 72.0 * z**7, 6480.0 * z**10])
    k2 = k * k
    even = k2 * np.exp(-pi2 * k2 / (2.0 * z2))
    terms[2] -= pi2 / (36.0 * z**3) * even.sum()
    terms[3] += pi2 / (216.0 * z6) * ((3.0 * z2 - pi2 * k2) * even).sum()
    cdf = math.sqrt(2.0 * math.pi) * float((terms / n ** (np.arange(4) / 2.0)).sum())
    return min(max(1.0 - cdf, 0.0), 1.0)


def _chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with an odd number ``df`` of degrees of
    freedom: the regularized upper incomplete gamma Q(df/2, y), y = x/2,
    which at a half-integer order is erfc(sqrt(y)) plus
    exp(-y) * sum over j < (df - 1)/2 of y^(j + 1/2) / Gamma(j + 3/2)."""
    if x <= 0.0:
        return 1.0
    y = x / 2.0
    log_y = math.log(y)
    tail = sum(
        math.exp((j + 0.5) * log_y - y - math.lgamma(j + 1.5)) for j in range((df - 1) // 2)
    )
    return min(math.erfc(math.sqrt(y)) + tail, 1.0)


def radial_ks(ps: PointSet) -> StatResult:
    """Kolmogorov-Smirnov test of the radii against the model's radial CDF.
    D is the larger of D+ = max(i/N - F) and D- = max(F - (i - 1)/N) over
    the sorted radii, D+ on a tie."""
    r = np.sort(ps.r)
    cdf = np.asarray(mu_ball_origin_exact(r, ps.params))
    n = r.size
    d_plus = float((np.arange(1.0, n + 1) / n - cdf).max())
    d_minus = float((cdf - np.arange(0.0, n) / n).max())
    d = d_plus if d_plus > d_minus else d_minus
    return StatResult(d, _kolmogorov_sf(n, d))


def angle_chisquare(ps: PointSet) -> StatResult:
    """Chi-square test of the angles' counts in 100 equal bins against
    their mean, on 99 degrees of freedom."""
    bins = np.minimum((ps.phi / (2.0 * math.pi) * 100).astype(int), 99)
    counts = np.bincount(bins, minlength=100).astype(float)
    mean = counts.mean()
    statistic = float(((counts - mean) ** 2 / mean).sum())
    return StatResult(statistic, _chi2_sf(statistic, counts.size - 1))


def fixed_vs_poisson_ks(seed: int, n: int) -> tuple[StatResult, int]:
    """Two-sample KS test of the radii of ``sample_fixed`` at ``seed`` and
    ``sample_poisson`` at ``seed + 1``, both at mean n; returns the test and
    the Poisson sample's size. D is the largest gap between the two
    empirical CDFs at every radius, and its p-value that of one sample of
    round(m k / (m + k)) points, for sizes m and k (Smirnov's asymptotic
    form)."""
    params = ModelParams(n, 0.75, 0.0)
    poisson = sample_poisson(params, seed + 1)
    a, b = np.sort(sample_fixed(params, seed).r), np.sort(poisson.r)
    both = np.concatenate((a, b))
    gaps = (
        np.searchsorted(a, both, side="right") / a.size
        - np.searchsorted(b, both, side="right") / b.size
    )
    # both ends of the merged radii give a gap of 0, so neither side is negative
    below, above = -float(gaps.min()), float(gaps.max())
    d = below if below > above else above
    size = round(a.size * b.size / (a.size + b.size))
    return StatResult(d, _kolmogorov_sf(size, d)), len(poisson)


def _two_sided_p(z: float) -> float:
    """Two-sided p-value of a standard normal statistic."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def _check_poisson_moments(seed: int, trials: int) -> CheckResult:
    params = ModelParams(100, 0.75, 0.0)
    counts = poisson_counts(params, trials, seed)
    mean = counts.mean()
    var = counts.var(ddof=1)
    z = (mean - 100.0) / math.sqrt(100.0 / trials)
    p = _two_sided_p(z)
    ok_var = 0.8 <= var / 100.0 <= 1.2
    result = _prob(
        "sampler/poisson-count-moments",
        p,
        f"mean={mean:.2f} var={var:.1f} over {trials} draws",
    )
    if not ok_var:
        result = CheckResult(result.name, result.kind, False, result.detail, result.p_value)
    return result


def _check_disjoint_independence(seed: int, trials: int) -> CheckResult:
    params = ModelParams(100, 0.75, 0.0)
    corr = disjointness_check(
        lambda r, phi: phi < math.pi,
        lambda r, phi: phi >= math.pi,
        params,
        trials,
        seed=seed,
    )
    # Fisher z-transform for the null of zero correlation
    z = 0.5 * math.log((1 + corr) / (1 - corr)) * math.sqrt(trials - 3)
    p = _two_sided_p(z)
    return _prob(
        "sampler/disjoint-independence",
        p,
        f"count correlation {corr:+.4f} over {trials} trials",
    )


def lens_measure(seed: int, samples: int) -> tuple[MonteCarloEstimate, float, float]:
    """Monte Carlo measure of the lens of points that ``edge_mask`` joins to
    a node at r0 = R/2 (R = 30, alpha 0.75) against ``mu_lens_approx``;
    returns (estimate, approximation, tolerance). They agree when their gap
    is within the tolerance, 10% of the approximation plus
    ``LENS_SLACK * exp(-alpha r0)``."""
    params = ModelParams.from_radius(30.0, 0.75)
    R = params.R
    r0 = R / 2.0
    approx = mu_lens_approx(r0, 0.0, params)
    mc = mu_monte_carlo(lambda radii, phi: edge_mask(radii, phi, r0, 0.0, R), params, samples, seed)
    tol = 0.10 * approx + LENS_SLACK * math.exp(-params.alpha * r0)
    return mc, approx, tol


def _child_checks(quick: bool, seed: int) -> tuple[list[CheckResult], list[CheckResult]]:
    """The checks that take only ``seed + k``, run in ``run_verify``'s forked
    child: (the graph and round-trip lines, the sampler lines). No two
    sampler checks share a seed: radial KS takes ``seed``, chi-square
    ``seed + 1``, fixed-vs-Poisson ``seed + 2`` and ``seed + 3``, Poisson
    moments ``seed + 4`` and disjointness ``seed + 6``; ``seed + 5`` is the
    lens measure's."""
    results = _check_underpass_and_core(
        2000 if quick else 10_000, 10_000 if quick else 100_000, seed
    )
    results.append(_check_file_round_trip(seed))
    samplers = []
    n = 100_000 if quick else 1_000_000
    ks = radial_ks(sample_fixed(ModelParams(n, 0.75, 0.0), seed))
    samplers.append(_prob("sampler/radial-ks", ks.pvalue, f"D={ks.statistic:.2e} on {n} radii"))
    chi2 = angle_chisquare(sample_fixed(ModelParams(n, 0.75, 0.0), seed + 1))
    detail = f"chi2={chi2.statistic:.1f} over 100 bins"
    samplers.append(_prob("sampler/angle-chisquare", chi2.pvalue, detail))
    n = 50_000 if quick else 100_000
    ks, poisson_size = fixed_vs_poisson_ks(seed + 2, n)
    detail = f"D={ks.statistic:.2e} ({n} vs {poisson_size} radii)"
    samplers.append(_prob("sampler/fixed-vs-poisson-ks", ks.pvalue, detail))
    samplers.append(_check_poisson_moments(seed + 4, 2000 if quick else 10_000))
    samplers.append(_check_disjoint_independence(seed + 6, 1000 if quick else 5000))
    return results, samplers


def _parent_checks(
    quick: bool, seed: int, coords: str | None, edges: str | None
) -> tuple[list[CheckResult], list[CheckResult], CheckResult]:
    """The checks that draw from one generator seeded with ``seed``, in draw
    order, then the input-file checks and the lens measure, run in
    ``run_verify``'s own process: (the chain's lines, the input-file lines,
    the lens line)."""
    rng = np.random.default_rng(seed)
    scale = 10 if quick else 1
    params, samples = ModelParams(10_000, 0.75, 0.0), 100_000 // scale

    def point():
        return radial_icdf(rng.random(samples), params), rng.uniform(0.0, 2.0 * math.pi, samples)

    symmetric, radial, triangle = distance_identities(*point(), *point(), *point())
    ok = symmetric and radial <= 1e-12 and triangle <= 1e-9
    detail = f"symmetric={symmetric} radial_err={radial:.2e} triangle_slack={triangle:.2e}"
    results = [_det("geometry/distance-identities", ok, f"{detail} R={params.R:.2f}")]
    pairs, consistent = threshold_consistency(rng, samples)
    detail = f"{pairs} radius pairs, edge below threshold / non-edge above"
    results.append(_det("geometry/threshold-consistency", consistent, detail))
    results.append(_check_theta_decay())
    gap = ball_measure_gap(50.0)
    detail = f"relative gap {gap:.2e} at r=R/2, R=50.0"
    results.append(_det("geometry/ball-measure-asymptotic", gap <= 0.01, detail))
    pairs, excess = theta_upper_excess(rng, 200 // scale)
    results.append(
        _det(
            "graphs/theta-upper-soundness",
            excess <= 0.0,
            f"{pairs} band pairs, max(theta_exact - bound) = {excess:.3e}",
        )
    )
    sizes = (10, 10, 100, 100) if quick else (10, 10, 100, 100, 1000, 1000)
    bad = banded_naive_mismatches(rng, sizes)
    detail = f"{len(sizes)} graphs, {bad} edge-set mismatches"
    results.append(_det("graphs/banded-equals-naive", bad == 0, detail))
    count = 5 if quick else 20
    bad = diameter_mismatches(rng, count)
    detail = f"{count} random graphs, {bad} disagreements"
    results.append(_det("graphs/diameter-equals-apsp", bad == 0, detail))
    files = _check_input_files(coords, edges) if coords and edges else []
    samples = 1_000_000 if quick else 10_000_000
    mc, approx, tol = lens_measure(seed + 5, samples)
    gap = abs(mc.value - approx)
    detail = (
        f"mc={mc.value:.3e}+-{mc.std_error:.1e} approx={approx:.3e} "
        f"gap={gap:.2e} tol={tol:.2e} ({samples} samples)"
    )
    ok = gap <= tol
    lens = CheckResult("measure/lens-monte-carlo", "probabilistic", ok, detail)
    return results, files, lens


def run_verify(
    quick: bool = False,
    seed: int | None = None,
    coords: str | None = None,
    edges: str | None = None,
) -> tuple[list[CheckResult], int]:
    """Run the suite; returns (results, exit code 0/1).

    The checks that take only ``seed + k`` (underpass and core, file
    round-trip, the five sampler tests) run in one forked child, so the
    suite needs POSIX ``os.fork``. This process meanwhile runs the checks
    that share one generator, in draw order, the lens measure and the
    ``coords``/``edges`` checks. An exception of either process propagates
    as itself, the child's first. The lines keep one order whichever
    process ran them."""
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**31))
    (chain, files, lens), (graphs, samplers) = fork_call(
        lambda: _child_checks(quick, seed),
        lambda: _parent_checks(quick, seed, coords, edges),
        "verify child",
    )
    results = chain + graphs + files + samplers + [lens]
    failed = any(not r.passed for r in results)
    return results, (1 if failed else 0)
