"""Structural analysis of generated graphs.

Connected components, exact diameters (iFUB), degree statistics with a
tail-exponent fit, inner-band diagnostics, sector-run statistics, and
deterministic geometric consistency checks. All functions take an
immutable :class:`~hrg.graphgen.Graph` or :class:`~hrg.sampling.PointSet`
and are safe to run concurrently. The components and their diameters
need the adjacency alone (:func:`component_structure`), so a graph can
have them before its points are read; one BFS from the core (radius
<= R/2) yields the hops to the inner band and the core's record. The
module runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import TWO_PI, ModelParams
from .graphgen import Graph, angle_order, arc_ranges
from .sampling import PointSet

__all__ = [
    "GraphAnalysis",
    "ComponentStructure",
    "ComponentReport",
    "DegreeStats",
    "BandDiagnostics",
    "InnerBandReach",
    "UnderpassResult",
    "bfs_distances",
    "connected_components",
    "component_structure",
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
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        nbrs = g.neighbors(frontier)
        nbrs = nbrs[dist[nbrs] < 0]
        if nbrs.size == 0:
            break
        mark = np.zeros(g.n, dtype=bool)
        mark[nbrs] = True
        frontier = np.nonzero(mark)[0]
        dist[frontier] = level
    return dist


def connected_components(g: Graph, reached: np.ndarray) -> np.ndarray:
    """Component label per node: the smallest node id of its component.

    ``reached`` masks the nodes of one whole component, or no node; they
    take its smallest id. ``component_structure`` passes the nodes the BFS
    from the highest-degree node reaches. The rest hook roots to the
    smallest neighbouring root, then pointer-jump until no label changes,
    as in FastSV (Zhang, Azad & Hu, SIAM PP 2020). A mask with an edge
    leaving it raises ``ValueError``: the hooking never reaches its nodes.
    """
    labels = np.arange(g.n, dtype=np.int64)
    labels[reached] = np.flatnonzero(reached)[:1]
    rest = np.flatnonzero(~reached)
    src = np.repeat(rest, g.degrees[rest])
    dst = g.neighbors(rest)
    if reached[dst].any():
        raise ValueError("reached is not a whole component")
    while src.size:
        np.minimum.at(labels, labels[src], labels[dst])  # roots hook to smaller roots only
        while not np.array_equal(jumped := labels[labels[rest]], labels[rest]):
            labels[rest] = jumped
        cross = labels[src] != labels[dst]  # an edge inside one star stays inside
        src, dst = src[cross], dst[cross]
    return labels


def _group_roots(g: Graph, members: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The iFUB root of each group of :func:`_component_diameters`: its
    highest-degree node, the smallest id on ties."""
    starts = np.cumsum(counts) - counts
    deg = g.degrees[members]
    top = deg == np.repeat(np.maximum.reduceat(deg, starts), counts)
    return members[np.minimum.reduceat(np.where(top, np.arange(members.size), members.size), starts)]


def _component_diameters(
    g: Graph, members: np.ndarray, counts: np.ndarray, level: np.ndarray
) -> np.ndarray:
    """Exact hop diameters of node groups, by one iFUB (Crescenzi et al.,
    TCS 2013) run on all groups at once.

    ``members`` lists the groups one after another, each in ascending node
    id order, and ``counts`` holds their sizes (two or more). ``level``
    holds each member's hops from its group's root (:func:`_group_roots`),
    -1 where the root does not reach it, which raises ``ValueError``.
    Distinct groups must lie in distinct components: one multi-source BFS
    with one source per group then gives every group its own
    single-source distances, and a max-reduce over each group turns them
    into eccentricities.

    Each group starts its lower bound with a double sweep from the root's
    farthest node, and then takes the other nodes by decreasing root
    distance. It stops once the lower bound reaches twice the root
    distance of its next node: every pair left has both ends that close
    to the root.
    """
    if np.any(level < 0):
        raise ValueError("component is not connected")
    starts = np.cumsum(counts) - counts
    group = np.repeat(np.arange(counts.size), counts)

    def eccentricities(sources):
        return np.maximum.reduceat(bfs_distances(g, sources)[members], starts)

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
    counts = np.array([comp.size])
    level = bfs_distances(g, _group_roots(g, comp, counts))[comp]
    return int(_component_diameters(g, comp, counts, level)[0])


@dataclass(frozen=True, eq=False)
class ComponentStructure:
    """What the adjacency alone gives of the components: labels, sizes in
    descending order, the giant (largest, ties broken by smallest contained
    node id) and exact diameters."""

    labels: np.ndarray
    sizes: list[int]
    giant_label: int
    giant_size: int
    second_size: int
    giant_diameter: int
    max_component_diameter: int


@dataclass(frozen=True, eq=False)
class ComponentReport(ComponentStructure):
    """Component structure plus the core's record. ``core_depth``, the most
    hops from a giant node to the core, bounds the giant diameter by
    2 * core_depth + 1 when the core is a clique; it is ``None`` when the
    core is empty or outside the giant."""

    core_hops: np.ndarray  # hops from the core (radius <= R/2), -1 where unreached
    core_size: int
    core_clique: bool
    core_in_giant: bool
    core_depth: int | None


def _structure(g: Graph, core: np.ndarray | None) -> tuple[ComponentStructure, np.ndarray | None]:
    """:func:`component_structure`, and the hops from the ``core`` nodes
    when they all lie in the hub's component, as an empty core does: their
    BFS then runs as one with the BFS from the other components' roots.
    Else, or for ``core=None``, the hops are None."""
    if g.n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return ComponentStructure(empty, [], -1, 0, 0, 0, 0), None if core is None else empty
    hub = int(np.argmax(g.degrees))  # the highest degree, the smallest id on ties
    hub_hops = bfs_distances(g, hub)
    reached = hub_hops >= 0
    labels = connected_components(g, reached)
    members = np.argsort(labels, kind="stable")
    uniq, counts = np.unique(labels[members], return_counts=True)
    multi = counts > 1
    grouped = members[np.repeat(multi, counts)]
    roots = _group_roots(g, grouped, counts[multi])  # the hub roots its own group
    merged = core is not None and bool(reached[core].all())
    others = roots[~reached[roots]]
    hops = bfs_distances(g, np.concatenate((core, others)) if merged else others)
    diameters = np.zeros(uniq.size, dtype=np.int64)
    level = np.where(reached, hub_hops, hops)[grouped]
    diameters[multi] = _component_diameters(g, grouped, counts[multi], level)
    order = np.argsort(-counts, kind="stable")  # uniq ascends: ties by smallest label
    structure = ComponentStructure(
        labels=labels,
        sizes=counts[order].tolist(),
        giant_label=int(uniq[order[0]]),
        giant_size=int(counts[order[0]]),
        second_size=int(counts[order[1]]) if counts.size > 1 else 0,
        giant_diameter=int(diameters[order[0]]),
        max_component_diameter=int(diameters.max()),
    )
    return structure, np.where(reached, hops, -1) if merged else None


def component_structure(g: Graph) -> ComponentStructure:
    """Component labels, sizes, the giant and exact diameters; it reads the
    adjacency alone, so ``g`` may lack its points.

    The BFS from the hub (the highest-degree node, the smallest id on
    ties) labels its component and is that component's iFUB root BFS; the
    other nodes are labelled by hooking, and one multi-source BFS gives the
    other components' roots their distances (:func:`_component_diameters`).
    """
    return _structure(g, None)[0]


def component_report(g: Graph, structure: ComponentStructure | None = None) -> ComponentReport:
    """:func:`component_structure` plus the core's record: the hops from the
    core (radius <= R/2), whether it is a clique and lies in the giant, and
    its depth. ``structure`` is ``g``'s :func:`component_structure` when it
    is already known; else its BFS from the other components' roots also
    runs from the core when the hub's component holds the whole core."""
    core = core_node_ids(g)
    core_hops = None
    if structure is None:
        structure, core_hops = _structure(g, core)
    if core_hops is None:
        core_hops = bfs_distances(g, core)
    giant = structure.labels == structure.giant_label
    in_giant = bool(giant[core].all())
    return ComponentReport(
        **{f.name: getattr(structure, f.name) for f in fields(ComponentStructure)},
        core_hops=core_hops,
        core_size=int(core.size),
        core_clique=check_core_clique(g),
        core_in_giant=in_giant,
        core_depth=int(core_hops[giant].max()) if in_giant and core.size else None,
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
    tail_size: int
    reliable: bool


def degree_stats(g: Graph) -> DegreeStats:
    deg = g.degrees
    mean = 2.0 * g.m / g.n if g.n else 0.0
    tail = deg[deg >= TAIL_FLOOR]
    reliable = tail.size >= MIN_TAIL
    if tail.size:
        denom = float(np.log(tail / (TAIL_FLOOR - 0.5)).sum())
        beta_hat = 1.0 + tail.size / denom if denom > 0 else math.nan
    else:
        beta_hat = math.nan
    return DegreeStats(
        histogram=np.bincount(deg, minlength=1),
        mean_degree=mean,
        beta_hat=beta_hat,
        tail_size=int(tail.size),
        reliable=bool(reliable),
    )


def inner_band_radius(params: ModelParams, c: float = 1.0) -> float:
    """Boundary radius of the inner band, R - ln(R)/(1-alpha) - c; at R = 0
    (n = 1, C = 0) its limit, +inf."""
    if not params.alpha < 1.0:
        raise ValueError(f"inner band needs alpha < 1, got alpha={params.alpha!r}")
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
    gaps = np.diff(occupied) - 1
    wrap = occupied[0] + n - occupied[-1] - 1
    return int(max(gaps.max(initial=0), wrap))


@dataclass(frozen=True, eq=False)
class BandDiagnostics:
    """Inner-band node count plus sector occupancy summaries."""

    inner_count: int
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
        inner_count=inner_count,
        max_empty_sector_run=run,
        window_k=k,
        max_nodes_in_window=max_window,
    )


@dataclass(frozen=True)
class UnderpassResult:
    violations: int
    tested: int
    attempts: int


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
    (endpoints included), and rejects a zero-width arc and a pick of u or w.
    The lookup of the closed arc in the sorted angles alone decides which
    nodes lie between u and w; its range holds at least the node at the
    arc's start, so it is never empty. A round never draws more edges than
    triples are missing, so ``tested`` stops at ``trials`` exactly; the
    rounds stop early once ``100 * trials + 1000`` edges have been drawn.
    ``attempts`` counts the edges drawn.
    """
    if g.m == 0 or g.n < 3:
        return UnderpassResult(0, 0, 0)
    n, phi, r = g.n, g.pointset.phi, g.pointset.r
    order = angle_order(phi)
    doubled = np.concatenate((phi[order], phi[order] + TWO_PI))
    small, large = g.edges()
    keys = small * n + large  # sorted, as the edges are canonical

    def adjacent(a, b):
        query = np.minimum(a, b) * n + np.maximum(a, b)
        return keys[np.minimum(np.searchsorted(keys, query), g.m - 1)] == query

    rng = np.random.default_rng(seed)
    violations = tested = attempts = 0
    max_attempts = 100 * trials + 1000
    while tested < trials and attempts < max_attempts:
        k = min(trials - tested, max_attempts - attempts)
        attempts += k
        pick = rng.integers(g.m, size=k)
        u, w = small[pick], large[pick]
        fwd = (phi[w] - phi[u]) % TWO_PI
        minor = fwd <= math.pi
        arc_lo = np.where(minor, phi[u], phi[w])
        width = np.where(minor, fwd, TWO_PI - fwd)
        lo, hi = arc_ranges(doubled, arc_lo, arc_lo + width)
        v = order[rng.integers(lo, hi) % n]
        keep = (width > 0.0) & (v != u) & (v != w)
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
    return int(np.count_nonzero(core[g.neighbors(ids)])) == ids.size * (ids.size - 1)


@dataclass(frozen=True)
class InnerBandReach:
    """Hop distances from the central clique to the inner band."""

    max_hops: int
    anomalies: int


def inner_band_hops(g: Graph, core_hops: np.ndarray, c: float = 1.0) -> InnerBandReach:
    """Maximum hop distance from the core (radius <= R/2) over the
    inner-band nodes, read from ``core_hops`` (``ComponentReport.core_hops``).

    Inner-band nodes unreachable from the core, all of them when the core
    is empty, are counted as anomalies rather than failures; the implied
    bound on inner-band pairwise distances is 2 * max + 1.
    """
    hops = core_hops[_in_inner_band(g.pointset, c)]
    return InnerBandReach(
        max_hops=int(hops.max(initial=0)),
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


def analyze_graph(
    g: Graph, inner_c: float = 1.0, structure: ComponentStructure | None = None
) -> GraphAnalysis:
    """Components with exact diameters and the core's record, degrees, bands,
    and hops from the core (radius <= R/2) to the inner band; ``structure``
    as in :func:`component_report`."""
    comps = component_report(g, structure)
    return GraphAnalysis(
        components=comps,
        degrees=degree_stats(g),
        bands=band_diagnostics(g.pointset, inner_c),
        reach=inner_band_hops(g, comps.core_hops, inner_c),
    )
