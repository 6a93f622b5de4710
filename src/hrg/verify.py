"""Self-check suite behind ``hrg verify``.

Deterministic checks (geometry identities, builder equivalence, diameter
oracle agreement, forced-edge and clique properties, file round-trips)
must all hold; any failure is a defect. Statistical checks (sampler
goodness-of-fit, Poisson moments, independence, Monte Carlo measure
agreement) report p-values or margins and only fail below the 0.1% level.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.sparse.csgraph import shortest_path

from .analysis import (
    analyze_graph,
    check_core_clique,
    check_underpass,
    component_report,
    exact_diameter,
)
from .geometry import (
    ModelParams,
    edge_mask,
    mu_ball_origin_exact,
    mu_lens_approx,
    mu_monte_carlo,
    pair_distances,
    theta_approx,
    theta_exact,
)
from .files import read_coords, read_edges, write_coords, write_edges
from .graphgen import Graph, band_count, build_banded, build_naive, theta_upper
from .sampling import disjointness_check, poisson_counts, radial_icdf, sample_fixed, sample_poisson

__all__ = ["CheckResult", "run_verify", "THETA_DECAY_BOUND", "LENS_SLACK"]

# Empirical ceiling on (relative error of the leading-order connection
# angle) * exp(r + y - R); measured maxima sit near 0.26, the bound leaves
# a factor ~4 of headroom.
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


def _check_distance_identities(rng, samples: int) -> CheckResult:
    params = ModelParams(10_000, 0.75, 0.0)
    R = params.R
    r = radial_icdf(rng.random(samples), params)
    phi = rng.uniform(0.0, 2.0 * math.pi, samples)
    r2 = radial_icdf(rng.random(samples), params)
    phi2 = rng.uniform(0.0, 2.0 * math.pi, samples)
    d_ab = pair_distances(r, phi, r2, phi2)
    d_ba = pair_distances(r2, phi2, r, phi)
    symmetric = bool(np.array_equal(d_ab, d_ba))
    radial = float(np.abs(pair_distances(r, phi, 0.0, 0.0) - r).max())
    r3 = radial_icdf(rng.random(samples), params)
    phi3 = rng.uniform(0.0, 2.0 * math.pi, samples)
    d_ac = pair_distances(r, phi, r3, phi3)
    d_bc = pair_distances(r2, phi2, r3, phi3)
    triangle = float((d_ac - (d_ab + d_bc)).max())
    ok = symmetric and radial <= 1e-12 and triangle <= 1e-9
    return _det(
        "geometry/distance-identities",
        ok,
        f"symmetric={symmetric} radial_err={radial:.2e} triangle_slack={triangle:.2e} R={R:.2f}",
    )


def _check_threshold_consistency(rng, samples: int) -> CheckResult:
    params = ModelParams(10_000, 0.75, 0.0)
    R = params.R
    r = rng.uniform(1.0, R, samples)
    y = np.maximum(rng.uniform(1.0, R, samples), R - r + 1e-6)
    theta = np.asarray(theta_exact(r, y, R))
    usable = (theta > 1e-7) & (theta < math.pi - 1e-7)
    r, y, theta = r[usable], y[usable], theta[usable]
    below = edge_mask(r, 0.0, y, theta - 1e-9, R)
    above = edge_mask(r, 0.0, y, theta + 1e-9, R)
    ok = bool(below.all() and not above.any())
    return _det(
        "geometry/threshold-consistency",
        ok,
        f"{r.size} radius pairs, edge below threshold / non-edge above",
    )


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


def _check_ball_measure() -> CheckResult:
    params = ModelParams.from_radius(50.0, 0.75)
    R = params.R
    exact = mu_ball_origin_exact(R / 2.0, params)
    approx = math.exp(-params.alpha * R / 2.0)
    rel = abs(exact - approx) / approx
    return _det(
        "geometry/ball-measure-asymptotic",
        rel <= 0.01,
        f"relative gap {rel:.2e} at r=R/2, R={R:.1f}",
    )


def _check_theta_upper(rng, samples_per_pair: int) -> CheckResult:
    worst = -math.inf
    pairs = 0
    for n in (2**11, 10**4, 2 * 10**5):
        R = ModelParams(n, 0.75, 0.0).R
        top = band_count(R)
        for i in range(1, top + 1):
            for j in range(i, top + 1):
                bound = theta_upper(i, j, R)
                if bound >= math.pi:
                    continue
                pairs += 1
                lo_r, lo_y = R - i, R - j
                edge = theta_exact(lo_r + 1e-12, lo_y + 1e-12, R)
                r = rng.uniform(lo_r, lo_r + 1.0, samples_per_pair)
                y = rng.uniform(lo_y, lo_y + 1.0, samples_per_pair)
                inside = float(np.max(theta_exact(r, y, R)))
                worst = max(worst, max(edge, inside) - bound)
    ok = worst <= 0.0
    return _det(
        "graphs/theta-upper-soundness",
        ok,
        f"{pairs} band pairs, max(theta_exact - bound) = {worst:.3e}",
    )


def _check_builder_equivalence(rng, sizes) -> CheckResult:
    mismatches = 0
    graphs = 0
    for n in sizes:
        for _ in range(2):
            seed = int(rng.integers(2**63))
            ps = sample_fixed(ModelParams(n, 0.75, 0.0), seed)
            fast = build_banded(ps)
            slow = build_naive(ps)
            graphs += 1
            if not np.array_equal(fast.edge_rows(), slow.edge_rows()):
                mismatches += 1
    return _det(
        "graphs/banded-equals-naive",
        mismatches == 0,
        f"{graphs} graphs, {mismatches} edge-set mismatches",
    )


def _apsp_diameter(g: Graph, nodes: np.ndarray) -> int:
    """Exact diameter of a connected node set: the largest entry of scipy's
    all-pairs shortest-path matrix on unit edge lengths over the set's
    induced subgraph. It shares no code with the library's iFUB, so each
    checks the other. A disconnected set raises ``ValueError``."""
    dist = shortest_path(g.adjacency()[nodes][:, nodes], unweighted=True, directed=False)
    if not np.isfinite(dist).all():
        raise ValueError("component is not connected")
    return int(dist.max())


def _check_diameter_oracle(rng, count: int) -> CheckResult:
    bad = 0
    for _ in range(count):
        n = int(rng.integers(10, 200))
        ps = sample_fixed(ModelParams(n, 0.75, 0.0), int(rng.integers(2**63)))
        g = build_banded(ps)
        comps = component_report(g)
        nodes = np.flatnonzero(comps.labels == comps.giant_label)
        if nodes.size < 2:
            continue
        oracle = _apsp_diameter(g, nodes)
        if exact_diameter(g, nodes) != oracle or comps.giant_diameter != oracle:
            bad += 1
    return _det(
        "graphs/diameter-equals-apsp",
        bad == 0,
        f"{count} random graphs, {bad} disagreements",
    )


def _check_underpass_and_core(n: int, trials: int, seed: int) -> list[CheckResult]:
    ps = sample_fixed(ModelParams(n, 0.75, 0.0), seed)
    g = build_banded(ps)
    result = check_underpass(g, trials, seed=seed)
    analysis = analyze_graph(g)
    return [
        _det(
            "analysis/underpass",
            result.violations == 0 and result.tested == trials,
            f"{result.tested} triples, {result.violations} violations (n={n})",
        ),
        _det("analysis/core-clique", analysis.core_clique, f"core size {analysis.core_size}"),
        CheckResult(
            "analysis/core-in-giant",
            "probabilistic",
            analysis.core_in_giant,
            f"core size {analysis.core_size} inside giant={analysis.core_in_giant}",
            p_value=None,
        ),
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
    rows = g.edge_rows()
    ok = (
        np.array_equal(ps.r, ps_back.r)
        and np.array_equal(ps.phi, ps_back.phi)
        and np.array_equal(build_banded(ps_back).edge_rows(), rows)
        and np.array_equal(edges_back, rows)
    )
    return _det("files/round-trip", ok, f"n=500, m={g.m}, exact round-trip={ok}")


def _check_input_files(coords_path: str, edges_path: str) -> list[CheckResult]:
    with open(coords_path, "r", encoding="utf-8") as fh:
        ps = read_coords(fh)
    with open(edges_path, "r", encoding="utf-8") as fh:
        file_edges = read_edges(fh, len(ps))
    rebuilt = build_banded(ps)
    match = np.array_equal(rebuilt.edge_rows(), file_edges)
    results = [
        _det(
            "files/input-consistency",
            match,
            f"edge file matches rebuild from coordinates={match} "
            f"(file m={file_edges.shape[0]}, rebuilt m={rebuilt.m})",
        )
    ]
    file_graph = Graph.from_edge_array(ps, file_edges[:, 0], file_edges[:, 1])
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


def _check_radial_ks(seed: int, samples: int) -> CheckResult:
    params = ModelParams(samples, 0.75, 0.0)
    ps = sample_fixed(params, seed)
    stat = stats.kstest(ps.r, lambda x: np.asarray(mu_ball_origin_exact(x, params)))
    return _prob(
        "sampler/radial-ks",
        stat.pvalue,
        f"D={stat.statistic:.2e} on {samples} radii",
    )


def _check_angle_chisquare(seed: int, samples: int) -> CheckResult:
    ps = sample_fixed(ModelParams(samples, 0.75, 0.0), seed)
    counts = np.bincount(
        np.minimum((ps.phi / (2.0 * math.pi) * 100).astype(int), 99), minlength=100
    )
    res = stats.chisquare(counts)
    return _prob(
        "sampler/angle-chisquare",
        res.pvalue,
        f"chi2={res.statistic:.1f} over 100 bins",
    )


def _check_fixed_vs_poisson(seed: int, n: int) -> CheckResult:
    params = ModelParams(n, 0.75, 0.0)
    fixed = sample_fixed(params, seed)
    poisson = sample_poisson(params, seed + 1)
    res = stats.ks_2samp(fixed.r, poisson.r)
    return _prob(
        "sampler/fixed-vs-poisson-ks",
        res.pvalue,
        f"D={res.statistic:.2e} ({len(fixed)} vs {len(poisson)} radii)",
    )


def _check_poisson_moments(seed: int, trials: int) -> CheckResult:
    params = ModelParams(100, 0.75, 0.0)
    counts = poisson_counts(params, trials, seed)
    mean = counts.mean()
    var = counts.var(ddof=1)
    z = (mean - 100.0) / math.sqrt(100.0 / trials)
    p = 2.0 * stats.norm.sf(abs(z))
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
    p = 2.0 * stats.norm.sf(abs(z))
    return _prob(
        "sampler/disjoint-independence",
        p,
        f"count correlation {corr:+.4f} over {trials} trials",
    )


def _check_lens_measure(seed: int, samples: int) -> CheckResult:
    params = ModelParams.from_radius(30.0, 0.75)
    R = params.R
    r0 = R / 2.0
    approx = mu_lens_approx(r0, 0.0, params)
    cosh_R = math.cosh(R)

    def lens(radii, phi):
        lhs = np.cosh(np.abs(radii - r0)) + (1.0 - np.cos(phi)) * np.sinh(radii) * math.sinh(r0)
        return lhs <= cosh_R

    mc = mu_monte_carlo(lens, params, samples, seed=seed)
    tol = 0.10 * approx + LENS_SLACK * math.exp(-params.alpha * r0)
    gap = abs(mc.value - approx)
    ok = gap <= tol
    p = 1.0 if ok else 0.0
    return CheckResult(
        "measure/lens-monte-carlo",
        "probabilistic",
        ok,
        f"mc={mc.value:.3e}+-{mc.std_error:.1e} approx={approx:.3e} "
        f"gap={gap:.2e} tol={tol:.2e} ({samples} samples)",
        p_value=p,
    )


def run_verify(
    quick: bool = False,
    seed: int | None = None,
    coords: str | None = None,
    edges: str | None = None,
) -> tuple[list[CheckResult], int]:
    """Run the suite; returns (results, exit code 0/1)."""
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**31))
    rng = np.random.default_rng(seed)
    scale = 10 if quick else 1

    results: list[CheckResult] = []
    results.append(_check_distance_identities(rng, 100_000 // scale))
    results.append(_check_threshold_consistency(rng, 100_000 // scale))
    results.append(_check_theta_decay())
    results.append(_check_ball_measure())
    results.append(_check_theta_upper(rng, 200 // scale))
    results.append(
        _check_builder_equivalence(rng, (10, 100) if quick else (10, 100, 1000))
    )
    results.append(_check_diameter_oracle(rng, 5 if quick else 20))
    results.extend(
        _check_underpass_and_core(
            2000 if quick else 10_000, 10_000 if quick else 100_000, seed
        )
    )
    results.append(_check_file_round_trip(seed))
    if coords and edges:
        results.extend(_check_input_files(coords, edges))
    results.append(_check_radial_ks(seed, 100_000 if quick else 1_000_000))
    results.append(_check_angle_chisquare(seed + 1, 100_000 if quick else 1_000_000))
    results.append(_check_fixed_vs_poisson(seed + 2, 50_000 if quick else 100_000))
    results.append(_check_poisson_moments(seed + 3, 2000 if quick else 10_000))
    results.append(_check_disjoint_independence(seed + 4, 1000 if quick else 5000))
    results.append(_check_lens_measure(seed + 5, 1_000_000 if quick else 10_000_000))

    failed = any(not r.passed for r in results)
    return results, (1 if failed else 0)
