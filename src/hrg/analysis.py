"""Structural analysis of generated graphs.

Connected components, exact diameters (iFUB), degree statistics with a
tail-exponent fit, inner-band diagnostics, sector-run statistics, and
deterministic geometric consistency checks. All functions take an
immutable :class:`~hrg.graphgen.Graph` or :class:`~hrg.sampling.PointSet`
and are safe to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components as _scipy_components

from ._util import arc_ranges, concatenated_ranges
from .geometry import TWO_PI, ModelParams, angle_gaps
from .graphgen import Graph
from .sampling import PointSet

__all__ = [
    "GraphAnalysis",
    "ComponentReport",
    "DegreeStats",
    "BandDiagnostics",
    "InnerBandReach",
    "UnderpassResult",
    "bfs_distances",
    "connected_components",
    "component_report",
    "exact_diameter",
    "degree_stats",
    "inner_band_radius",
    "max_empty_sector_run",
    "band_diagnostics",
    "check_underpass",
    "check_core_clique",
    "core_node_ids",
    "inner_band_hops",
    "analyze_graph",
]


def bfs_distances(g: Graph, sources) -> np.ndarray:
    """Hop distances from a source set; -1 marks unreachable nodes."""
    dist = np.full(g.n, -1, dtype=np.int64)
    frontier = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if frontier.size == 0:
        return dist
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        counts = g.indptr[frontier + 1] - g.indptr[frontier]
        nbrs = g.indices[concatenated_ranges(g.indptr[frontier], counts)]
        nbrs = nbrs[dist[nbrs] < 0]
        if nbrs.size == 0:
            break
        mark = np.zeros(g.n, dtype=bool)
        mark[nbrs] = True
        frontier = np.nonzero(mark)[0]
        dist[frontier] = level
    return dist


def connected_components(g: Graph) -> np.ndarray:
    """Component label per node; the label is the smallest node id the
    component contains, which makes the labeling deterministic. Strong
    components of the symmetric CSR are its connected components, and
    scipy finds them without the transposed copy its undirected mode makes."""
    if g.n == 0:
        return np.empty(0, dtype=np.int64)
    count, raw = _scipy_components(g.adjacency(), directed=True, connection="strong")
    first = np.full(count, g.n, dtype=np.int64)
    np.minimum.at(first, raw, np.arange(g.n, dtype=np.int64))
    return first[raw]


def _component_diameters(g: Graph, members: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Exact hop diameters of node groups, by one iFUB (Crescenzi et al.,
    TCS 2013) run on all groups at once.

    ``members`` lists the groups one after another, each in ascending node
    id order, and ``counts`` holds their sizes (two or more). Distinct groups
    must lie in distinct components: one multi-source BFS with one source
    per group then gives every group its own single-source distances, and
    a max-reduce over each group turns them into eccentricities.

    Each group roots at its highest-degree node (smallest id on ties),
    starts its lower bound with a double sweep from the root's farthest
    node, and then takes the other nodes by decreasing root distance. It
    stops once the lower bound reaches twice the root distance of its next
    node: every pair left has both ends that close to the root. A group
    whose root does not reach all of it raises ``ValueError``.
    """
    starts = np.cumsum(counts) - counts
    group = np.repeat(np.arange(counts.size), counts)

    def distances(sources):
        return bfs_distances(g, sources)[members]

    def eccentricities(sources):
        return np.maximum.reduceat(distances(sources), starts)

    deg = g.degrees[members]
    top = deg == np.repeat(np.maximum.reduceat(deg, starts), counts)
    roots = np.minimum.reduceat(np.where(top, np.arange(members.size), members.size), starts)
    level = distances(members[roots])
    if np.any(level < 0):
        raise ValueError("component is not connected")
    # each group's nodes by decreasing root distance, ties by id; the first
    # is the far end of the double sweep, the last the root. One stable sort
    # of packed (group, distance) keys keeps the ascending ids of a tie.
    top_level = int(level.max(initial=0))
    order = np.argsort(group * (top_level + 1) + (top_level - level), kind="stable")
    fringe, fringe_level = members[order], level[order]
    lower = eccentricities(fringe[starts])
    nxt = starts + 1
    while True:
        open_ = lower < 2 * fringe_level[nxt]
        if not open_.any():
            return lower
        ecc = eccentricities(fringe[nxt[open_]])
        lower[open_] = np.maximum(lower[open_], ecc[open_])
        nxt[open_] += 1


def exact_diameter(g: Graph, component) -> int:
    """Exact hop diameter of a connected component via iFUB; node order and
    duplicates are ignored, and empty or disconnected input raises."""
    comp = np.unique(np.asarray(component, dtype=np.int64))
    if comp.size == 0:
        raise ValueError("empty component")
    if comp.size == 1:
        return 0
    return int(_component_diameters(g, comp, np.array([comp.size]))[0])


@dataclass(frozen=True, eq=False)
class ComponentReport:
    """Component structure: sizes in descending order, the giant (largest,
    ties broken by smallest contained node id), and exact diameters."""

    labels: np.ndarray
    sizes: list[int]
    giant_label: int
    giant_size: int
    second_size: int
    giant_diameter: int
    max_component_diameter: int


def component_report(g: Graph) -> ComponentReport:
    labels = connected_components(g)
    if g.n == 0:
        return ComponentReport(labels, [], -1, 0, 0, 0, 0)
    members = np.argsort(labels, kind="stable")
    uniq, counts = np.unique(labels[members], return_counts=True)
    multi = counts > 1
    diameters = np.zeros(uniq.size, dtype=np.int64)
    diameters[multi] = _component_diameters(g, members[np.repeat(multi, counts)], counts[multi])
    order = np.argsort(-counts, kind="stable")  # uniq ascends: ties by smallest label
    return ComponentReport(
        labels=labels,
        sizes=counts[order].tolist(),
        giant_label=int(uniq[order[0]]),
        giant_size=int(counts[order[0]]),
        second_size=int(counts[order[1]]) if counts.size > 1 else 0,
        giant_diameter=int(diameters[order[0]]),
        max_component_diameter=int(diameters.max()),
    )


# Smallest degree in the tail fit, and the tail size below which the fit
# is flagged unreliable.
TAIL_FLOOR = 10
MIN_TAIL = 50


@dataclass(frozen=True, eq=False)
class DegreeStats:
    """Degree histogram plus a discrete maximum-likelihood tail exponent.

    ``beta_hat = 1 + k / sum(ln(d_i / (x_min - 1/2)))`` over the k degrees
    >= x_min = ``TAIL_FLOOR``. The fit is flagged unreliable below
    ``MIN_TAIL`` tail samples.
    """

    histogram: np.ndarray
    mean_degree: float
    beta_hat: float
    x_min: int
    tail_size: int
    reliable: bool
    beta_theory: float
    delta_theory: float


def degree_stats(g: Graph) -> DegreeStats:
    deg = g.degrees
    params = g.pointset.params
    hist = np.bincount(deg, minlength=1) if g.n else np.zeros(1, dtype=np.int64)
    mean = 2.0 * g.m / g.n if g.n else 0.0
    x_min = TAIL_FLOOR
    tail = deg[deg >= x_min]
    reliable = tail.size >= MIN_TAIL
    if tail.size:
        denom = float(np.log(tail / (x_min - 0.5)).sum())
        beta_hat = 1.0 + tail.size / denom if denom > 0 else math.nan
    else:
        beta_hat = math.nan
    return DegreeStats(
        histogram=hist,
        mean_degree=mean,
        beta_hat=beta_hat,
        x_min=x_min,
        tail_size=int(tail.size),
        reliable=bool(reliable),
        beta_theory=params.degree_exponent,
        delta_theory=params.mean_degree,
    )


def inner_band_radius(params: ModelParams, c: float = 1.0) -> float:
    """Boundary radius of the inner band, R - ln(R)/(1-alpha) - c; at R = 0
    (n = 1, C = 0) its limit, +inf."""
    if params.alpha >= 1.0:
        raise ValueError("inner band is undefined for alpha >= 1")
    if params.R == 0.0:
        return math.inf
    return params.R - math.log(params.R) / (1.0 - params.alpha) - c


def core_node_ids(g: Graph) -> np.ndarray:
    """Nodes with radius at most R/2; they always form a clique."""
    ps = g.pointset
    return np.nonzero(ps.r <= ps.params.R / 2.0)[0]


def _in_inner_band(ps: PointSet, c: float) -> np.ndarray:
    """Mask of the nodes with radius at most ``inner_band_radius(params, c)``."""
    return ps.r <= inner_band_radius(ps.params, c)


def _sector_of(phi: np.ndarray, n: int) -> np.ndarray:
    """Index of the angle's sector, out of n equal sectors of the circle."""
    return np.minimum((phi / TWO_PI * n).astype(np.int64), n - 1)


def max_empty_sector_run(ps: PointSet, c: float = 1.0) -> int:
    """Longest circular run of consecutive empty sectors, out of n equal
    sectors, where a sector counts as empty when it holds no inner-band
    node."""
    n = ps.params.n
    inner_phi = ps.phi[_in_inner_band(ps, c)]
    if inner_phi.size == 0:
        return n
    occupied = np.unique(_sector_of(inner_phi, n))
    if occupied.size == 1:
        return n - 1
    gaps = np.diff(occupied) - 1
    wrap = occupied[0] + n - occupied[-1] - 1
    return int(max(gaps.max(), wrap))


@dataclass(frozen=True, eq=False)
class BandDiagnostics:
    """Inner-band node count plus sector occupancy summaries."""

    inner_c: float
    inner_count: int
    sectors: int
    max_empty_sector_run: int
    window_k: int
    max_nodes_in_window: int


def band_diagnostics(ps: PointSet, c: float = 1.0) -> BandDiagnostics:
    params = ps.params
    n = params.n
    inner_count = int(np.count_nonzero(_in_inner_band(ps, c)))
    run = max_empty_sector_run(ps, c)
    try:
        k = min(n, int(math.ceil(math.log(n) ** (1.0 / (1.0 - params.alpha))))) if n > 1 else 1
    except OverflowError:  # a power beyond the float range exceeds n
        k = n
    # the fullest window starts at some point's sector: count from each, over
    # the circle, in work sized by the points (a Poisson file's n may be far larger)
    sectors = np.sort(_sector_of(ps.phi, n))
    ends = np.searchsorted(np.concatenate((sectors, sectors + n)), sectors + k)
    max_window = int(np.minimum(ends - np.arange(sectors.size), sectors.size).max(initial=0))
    return BandDiagnostics(
        inner_c=c,
        inner_count=inner_count,
        sectors=n,
        max_empty_sector_run=run,
        window_k=k,
        max_nodes_in_window=max_window,
    )


@dataclass(frozen=True)
class UnderpassResult:
    violations: int
    tested: int
    attempts: int


# Rounding slack of the betweenness test gap(u,v) + gap(v,w) = gap(u,w).
BETWEEN_TOL = 1e-9


def check_underpass(g: Graph, trials: int, seed: int = 0) -> UnderpassResult:
    """Sample edge/between-node triples and verify the forced edges.

    For a sampled edge {u, w} and a node v angularly between them: if v's
    radius is at most both endpoint radii, v must be adjacent to both; if
    it is at most r_u but above r_w, v must be adjacent to w, and
    symmetrically. Together: v must be adjacent to u when r_v <= r_w and
    to w when r_v <= r_u. The count of violations is returned and must be
    zero, as the property is plain geometry, not a random event.

    Triples are drawn in blocks: each round samples one edge per missing
    triple, picks one node uniformly from the nodes on the edge's minor arc
    (endpoints included), and rejects a zero-width arc, a pick of u or w,
    and a pick that fails the betweenness test. A round never draws more
    edges than triples are missing, so ``tested`` stops at ``trials``
    exactly; the rounds stop early once ``100 * trials + 1000`` edges have
    been drawn. ``attempts`` counts the edges drawn.
    """
    if g.m == 0 or g.n < 3:
        return UnderpassResult(0, 0, 0)
    n, phi, r = g.n, g.pointset.phi, g.pointset.r
    order = np.argsort(phi, kind="stable")
    doubled = np.concatenate((phi[order], phi[order] + TWO_PI))
    keys = g.edges[:, 0] * n + g.edges[:, 1]  # sorted, as the rows are canonical

    def adjacent(a, b):
        query = np.minimum(a, b) * n + np.maximum(a, b)
        return keys[np.minimum(np.searchsorted(keys, query), g.m - 1)] == query

    rng = np.random.default_rng(seed)
    violations = tested = attempts = 0
    max_attempts = 100 * trials + 1000
    while tested < trials and attempts < max_attempts:
        k = min(trials - tested, max_attempts - attempts)
        attempts += k
        u, w = g.edges[rng.integers(g.m, size=k)].T
        fwd = (phi[w] - phi[u]) % TWO_PI
        minor = fwd <= math.pi
        arc_lo = np.where(minor, phi[u], phi[w])
        width = np.where(minor, fwd, TWO_PI - fwd)
        lo, hi = arc_ranges(doubled, arc_lo, arc_lo + width)
        v = order[rng.integers(lo, np.maximum(hi, lo + 1)) % n]
        keep = (width > 0.0) & (hi > lo) & (v != u) & (v != w)
        pu, pv, pw = phi[u], phi[v], phi[w]
        excess = angle_gaps(pu, pv) + angle_gaps(pv, pw) - angle_gaps(pu, pw)
        keep &= np.abs(excess) <= BETWEEN_TOL
        u, v, w = u[keep], v[keep], w[keep]
        bad = ((r[v] <= r[w]) & ~adjacent(v, u)) | ((r[v] <= r[u]) & ~adjacent(v, w))
        tested += int(u.size)
        violations += int(np.count_nonzero(bad))
    return UnderpassResult(violations=violations, tested=tested, attempts=attempts)


def check_core_clique(g: Graph) -> bool:
    """True iff every pair of nodes with radius <= R/2 is adjacent: the k core
    nodes' (duplicate-free) neighbor lists then hold k(k-1) core entries."""
    ids = core_node_ids(g)
    core = np.zeros(g.n, dtype=bool)
    core[ids] = True
    nbrs = g.indices[concatenated_ranges(g.indptr[ids], g.degrees[ids])]
    return int(np.count_nonzero(core[nbrs])) == ids.size * (ids.size - 1)


@dataclass(frozen=True)
class InnerBandReach:
    """Hop distances from the central clique to the inner band."""

    max_hops: int
    anomalies: int


def inner_band_hops(g: Graph, c: float = 1.0) -> InnerBandReach:
    """Maximum BFS hop distance from the core (radius <= R/2) over the
    inner-band nodes.

    Inner-band nodes unreachable from the core, all of them when the core
    is empty, are counted as anomalies rather than failures; the implied
    bound on inner-band pairwise distances is 2 * max + 1.
    """
    inner = np.nonzero(_in_inner_band(g.pointset, c))[0]
    hops = bfs_distances(g, core_node_ids(g))[inner]
    reachable = hops[hops >= 0]
    return InnerBandReach(
        max_hops=int(reachable.max()) if reachable.size else 0,
        anomalies=int(np.count_nonzero(hops < 0)),
    )


@dataclass(frozen=True, eq=False)
class GraphAnalysis:
    """The analyses of one graph that the sweep row, the schema-1 report
    and ``hrg verify`` read."""

    components: ComponentReport
    degrees: DegreeStats
    bands: BandDiagnostics
    reach: InnerBandReach
    core_size: int
    core_clique: bool
    core_in_giant: bool


def analyze_graph(g: Graph, inner_c: float = 1.0) -> GraphAnalysis:
    """Components with exact diameters, degrees, bands, hops from the core to
    the inner band, and whether the core (radius <= R/2) is a clique in the giant."""
    comps = component_report(g)
    core = core_node_ids(g)
    return GraphAnalysis(
        components=comps,
        degrees=degree_stats(g),
        bands=band_diagnostics(g.pointset, inner_c),
        reach=inner_band_hops(g, inner_c),
        core_size=int(core.size),
        core_clique=check_core_clique(g),
        core_in_giant=bool(np.all(comps.labels[core] == comps.giant_label)),
    )
