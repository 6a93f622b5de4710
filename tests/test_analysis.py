"""Tests for structural analysis: components, diameter, degrees, bands,
forced-edge checks."""

import contextlib
import io
import json
import math
from collections import deque

import numpy as np
import pytest
from conftest import apsp_eccentricities

from hrg import analysis
from hrg.analysis import (
    InnerBandReach,
    UnderpassResult,
    analyze_graph,
    bfs_distances,
    band_diagnostics,
    check_core_clique,
    check_underpass,
    component_report,
    connected_components,
    core_node_ids,
    degree_stats,
    exact_diameter,
    inner_band_hops,
    inner_band_radius,
    max_empty_sector_run,
)
from hrg.cli import main
from hrg.geometry import TWO_PI, ModelParams
from hrg.graphgen import Graph, build_banded, layer_of_radius
from hrg.sampling import MODE_FIXED, MODE_POISSON, PointSet, sample_fixed
from hrg.verify import _apsp_diameter


def manual_graph(params, radii, angles, edge_pairs):
    ps = PointSet(params, np.asarray(radii, float), np.asarray(angles, float), MODE_FIXED, 0)
    pairs = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
    return Graph.from_edge_array(ps, pairs[:, 0], pairs[:, 1])


# (nodes, diameter) of the components of ``disjoint_union_graph``: a 7-node
# path whose highest-degree root (node 1) is off-centre, a star, a 9-cycle,
# a 4-clique and a lone edge
UNION_COMPONENTS = [
    (list(range(0, 7)), 6),
    (list(range(7, 12)), 2),
    (list(range(12, 21)), 4),
    (list(range(21, 25)), 1),
    ([25, 26], 1),
]


def disjoint_union_graph():
    path = [(v, v + 1) for v in range(6)]
    star = [(7, leaf) for leaf in range(8, 12)]
    cycle = [(12 + k, 12 + (k + 1) % 9) for k in range(9)]
    clique = [(a, b) for a in range(21, 25) for b in range(a + 1, 25)]
    angles = np.linspace(0.0, 6.0, 27)
    return manual_graph(
        ModelParams(27, 0.75, 0.0), [0.1] * 27, angles, path + star + cycle + clique + [(25, 26)]
    )


def oracle_labels(g):
    """Independent BFS labeling; label is the smallest id in the component."""
    labels = [-1] * g.n
    for start in range(g.n):
        if labels[start] >= 0:
            continue
        queue = deque([start])
        labels[start] = start
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                v = int(v)
                if labels[v] < 0:
                    labels[v] = start
                    queue.append(v)
    return np.asarray(labels)


class TestConnectedComponents:
    def test_edgeless_graph(self):
        params = ModelParams(3, 0.75, 0.0)
        g = manual_graph(params, [1.0, 1.0, 1.0], [0.0, 1.0, 2.0], [])
        assert connected_components(g).tolist() == [0, 1, 2]

    def test_triangle(self):
        params = ModelParams(3, 0.75, 0.0)
        g = manual_graph(params, [0.1, 0.1, 0.1], [0.0, 1.0, 2.0], [(0, 1), (1, 2), (0, 2)])
        assert connected_components(g).tolist() == [0, 0, 0]

    def test_against_bfs_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            ps = sample_fixed(ModelParams(500, 0.75, 0.0), int(rng.integers(2**63)))
            g = build_banded(ps)
            assert np.array_equal(connected_components(g), oracle_labels(g))


class TestExactDiameter:
    def test_single_node(self):
        params = ModelParams(1, 0.75, 2.0)
        g = manual_graph(params, [0.5], [0.0], [])
        assert exact_diameter(g, [0]) == 0

    def test_path_of_four(self):
        params = ModelParams(4, 0.75, 0.0)
        g = manual_graph(params, [0.1] * 4, [0.0, 0.5, 1.0, 1.5], [(0, 1), (1, 2), (2, 3)])
        assert exact_diameter(g, [0, 1, 2, 3]) == 3

    def test_disconnected_rejected(self):
        params = ModelParams(3, 0.75, 0.0)
        g = manual_graph(params, [0.1] * 3, [0.0, 1.0, 2.0], [(0, 1)])
        with pytest.raises(ValueError):
            exact_diameter(g, [0, 1, 2])

    def test_order_and_duplicates_ignored(self):
        g = disjoint_union_graph()
        assert exact_diameter(g, [6, 0, 3, 3, 1, 5, 2, 4, 6]) == 6
        assert exact_diameter(g, [26, 25, 26]) == 1
        assert exact_diameter(g, [9, 9]) == 0

    def test_against_apsp_oracle(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 100:
            n = int(rng.integers(10, 301))
            ps = sample_fixed(ModelParams(n, 0.75, 0.0), int(rng.integers(2**63)))
            g = build_banded(ps)
            report = component_report(g)
            nodes = np.flatnonzero(report.labels == report.giant_label)
            if nodes.size < 2:
                continue
            assert exact_diameter(g, nodes) == apsp_eccentricities(g)[nodes].max()
            checked += 1


class TestComponentReport:
    def test_sizes_and_invariants(self):
        ps = sample_fixed(ModelParams(3000, 0.75, 0.0), 22)
        g = build_banded(ps)
        report = component_report(g)
        assert sum(report.sizes) == g.n
        assert report.sizes == sorted(report.sizes, reverse=True)
        assert report.second_size <= report.giant_size
        assert report.giant_diameter >= 0
        assert report.max_component_diameter >= report.giant_diameter
        assert np.count_nonzero(report.labels == report.giant_label) == report.giant_size

    def test_max_diameter_component(self):
        # two components: a triangle and a path of 4 with larger diameter
        params = ModelParams(7, 0.75, 0.0)
        g = manual_graph(
            params,
            [0.1] * 7,
            [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)],
        )
        report = component_report(g)
        assert report.giant_size == 4
        assert report.giant_diameter == 3
        assert report.max_component_diameter == 3
        assert report.second_size == 3

    def test_batched_components_stop_independently(self, monkeypatch):
        g = disjoint_union_graph()
        rounds = []
        bfs = analysis.bfs_distances

        def counted(graph, sources):
            rounds.append(np.atleast_1d(sources).size)
            return bfs(graph, sources)

        monkeypatch.setattr(analysis, "bfs_distances", counted)
        eccentricities = apsp_eccentricities(g)
        per_component = []
        for nodes, diameter in UNION_COMPONENTS:
            rounds.clear()
            assert exact_diameter(g, nodes) == diameter == eccentricities[nodes].max()
            per_component.append(len(rounds))
        # root BFS, double sweep, then one fringe node per round until the stop
        assert per_component == [3, 2, 5, 4, 2]
        rounds.clear()
        report = component_report(g)
        assert report.sizes == [9, 7, 5, 4, 2]
        assert report.giant_diameter == 4
        assert report.max_component_diameter == 6
        # one BFS per round for all components, each source set shrinking as
        # components stop
        assert rounds == [5, 5, 3, 2, 1]

    def test_grouping_against_oracles(self):
        # C in [2, 4] thins the graphs to hundreds of components each, from
        # lone edges up to giants of over a thousand nodes
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(50, 3001))
            params = ModelParams(n, 0.75, float(rng.uniform(2.0, 4.0)))
            g = build_banded(sample_fixed(params, int(rng.integers(2**63))))
            report = component_report(g)
            labels = oracle_labels(g)
            uniq, counts = np.unique(labels, return_counts=True)
            eccentricities = apsp_eccentricities(g)
            diameters = {
                int(label): eccentricities[labels == label].max() for label in uniq
            }
            giant = int(uniq[np.lexsort((uniq, -counts))[0]])
            assert report.sizes == sorted(counts.tolist(), reverse=True)
            assert report.giant_label == giant
            assert report.giant_diameter == diameters[giant]
            assert report.max_component_diameter == max(diameters.values())


def networkx_graph_pairs(nx):
    """(graph, networkx twin) pairs: 20 random multi-component graphs."""
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 80))
        # mean degree 0.5..3 spans dust, small trees and one giant
        pairs = rng.integers(0, n, size=(int(rng.uniform(0.25, 1.5) * n), 2))
        pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
        pairs = rng.permutation(pairs)
        swap = rng.random(len(pairs)) < 0.5
        pairs[swap] = pairs[swap][:, ::-1]
        g = manual_graph(ModelParams(n, 0.75, 0.0), [0.0] * n, [0.0] * n, pairs)
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(pairs.tolist())
        yield g, reference


class TestNetworkxCrossCheck:
    def test_components_and_diameters(self):
        nx = pytest.importorskip("networkx")
        for g, reference in networkx_graph_pairs(nx):
            report = component_report(g)
            components = sorted(
                (sorted(c) for c in nx.connected_components(reference)),
                key=lambda c: (-len(c), c[0]),
            )
            diameters = [nx.diameter(reference.subgraph(c)) for c in components]
            for nodes, diameter in zip(components, diameters):
                assert (report.labels[nodes] == nodes[0]).all()
                assert exact_diameter(g, nodes) == diameter
            assert report.sizes == [len(c) for c in components]
            assert report.giant_label == components[0][0]
            assert report.giant_diameter == diameters[0]
            assert report.max_component_diameter == max(diameters)


class TestApspOracle:
    """The all-pairs oracle that ``hrg verify`` holds iFUB against."""

    def test_known_components(self):
        g = disjoint_union_graph()
        for nodes, diameter in UNION_COMPONENTS:
            assert _apsp_diameter(g, np.asarray(nodes)) == diameter

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            _apsp_diameter(disjoint_union_graph(), np.array([0, 7]))

    def test_against_networkx(self):
        nx = pytest.importorskip("networkx")
        for g, reference in networkx_graph_pairs(nx):
            for component in nx.connected_components(reference):
                nodes = np.array(sorted(component))
                assert _apsp_diameter(g, nodes) == nx.diameter(reference.subgraph(component))


class TestDegreeStats:
    def test_regular_graph_unreliable(self):
        params = ModelParams(4, 0.75, 0.0)
        complete = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        g = manual_graph(params, [0.1] * 4, [0.0, 1.0, 2.0, 3.0], complete)
        stats = degree_stats(g)
        assert stats.mean_degree == 3.0
        assert not stats.reliable

    def test_theory_values(self):
        ps = sample_fixed(ModelParams(100, 0.75, 0.0), 23)
        stats = degree_stats(build_banded(ps))
        assert stats.beta_theory == 2.5
        assert stats.delta_theory == pytest.approx(5.7296, abs=1e-3)

    def test_mean_degree_identity(self):
        g = build_banded(sample_fixed(ModelParams(5000, 0.75, 0.0), 24))
        stats = degree_stats(g)
        assert stats.mean_degree == 2.0 * g.m / g.n
        assert int(stats.histogram.sum()) == g.n

    def test_fit_recovers_exponent_roughly(self):
        g = build_banded(sample_fixed(ModelParams(100_000, 0.75, 0.0), 25))
        stats = degree_stats(g)
        assert stats.reliable
        assert 2.2 <= stats.beta_hat <= 2.8


class TestLayersAndBands:
    def test_layer_boundaries(self):
        params = ModelParams(100, 0.75, 0.0)
        R = params.R
        assert layer_of_radius(R, R) == 1
        assert layer_of_radius(R - 1.0, R) == 2

    def test_inner_band_example(self):
        params = ModelParams.from_radius(20.0, 0.75)
        bound = inner_band_radius(params, c=1.0)
        assert bound == pytest.approx(20.0 - math.log(20.0) / 0.25 - 1.0, abs=0.01)
        ps = PointSet(params, np.array([0.0, bound + 0.1]), np.zeros(2), MODE_POISSON, 0)
        assert band_diagnostics(ps, c=1.0).inner_count == 1

    def test_inner_band_needs_alpha_below_one(self):
        with pytest.raises(ValueError):
            inner_band_radius(ModelParams(100, 1.2, 0.0))


class TestSectorRuns:
    def test_all_points_in_one_sector(self):
        # n large enough that the inner-band radius is positive
        params = ModelParams(1000, 0.75, 0.0)
        ps = PointSet(params, np.zeros(1000), np.zeros(1000), MODE_FIXED, 0)
        assert inner_band_radius(params) > 0.0
        assert max_empty_sector_run(ps) == 999

    def test_no_inner_points(self):
        params = ModelParams(50, 0.75, 0.0)
        radii = np.full(50, params.R)
        ps = PointSet(params, radii, np.linspace(0.0, 6.0, 50), MODE_FIXED, 0)
        assert max_empty_sector_run(ps) == 50

    def test_empirical_bound_across_seeds(self):
        # longest run stays below a fitted multiple of (ln n)^{1/(1-alpha)};
        # measured maxima over these seeds reach 5.7, the ceiling is 8
        params = ModelParams(100_000, 0.75, 0.0)
        limit = 8.0 * math.log(params.n) ** 4
        for seed in range(1, 11):
            ps = sample_fixed(params, seed)
            assert max_empty_sector_run(ps, 1.0) <= limit

    def test_diagnostics_fields(self):
        params = ModelParams(1000, 0.75, 0.0)
        ps = sample_fixed(params, 26)
        diag = band_diagnostics(ps, 1.0)
        assert diag.sectors == 1000
        assert 0 <= diag.inner_count <= len(ps)
        assert diag.window_k == min(1000, math.ceil(math.log(1000) ** 4))
        assert 0 <= diag.max_nodes_in_window <= len(ps)

    def test_max_nodes_in_window_against_histogram(self):
        # alpha = 0.5 gives k = ceil((ln n)^2), below n from n = 100 on
        def oracle(phi, n, k):
            counts = np.bincount(np.minimum((phi / TWO_PI * n).astype(int), n - 1), minlength=n)
            return max(sum(counts[(j + t) % n] for t in range(k)) for j in range(n))

        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 100, 300):
            params = ModelParams(n, 0.5, 0.0)
            for count in (0, 1, n // 2, 3 * n):
                # a few clusters of equal angles, to fill some sectors twice
                phi = rng.choice(rng.uniform(0.0, TWO_PI, size=max(1, count // 4)), size=count)
                ps = PointSet(params, np.zeros(count), phi, MODE_POISSON, 0)
                diag = band_diagnostics(ps, 1.0)
                assert diag.max_nodes_in_window == oracle(phi, n, diag.window_k), (n, count)

    def test_window_k_saturates_near_alpha_one(self, tmp_path):
        # (ln 1000) ** 1000 exceeds the float range; the window is then all n
        coords, edges, report = (str(tmp_path / name) for name in ("c.tsv", "e.tsv", "r.json"))
        with contextlib.redirect_stdout(io.StringIO()):
            generated = main(["generate", "--n", "1000", "--alpha", "0.999", "--seed", "1",
                              "--out-coords", coords, "--out-edges", edges])
            analyzed = main(["analyze", "--coords", coords, "--edges", edges, "--report", report])
        assert (generated, analyzed) == (0, 0)
        with open(report) as stream:
            assert json.load(stream)["bands"]["window_k"] == 1000


class TestUnderpass:
    def test_no_violations_on_generated_graph(self):
        g = build_banded(sample_fixed(ModelParams(10_000, 0.75, 0.0), 27))
        result = check_underpass(g, 100_000, seed=28)
        assert result.tested == 100_000
        assert result.violations == 0

    # node v = 1 lies angularly between u = 0 and w = 2
    ANGLES = [0.0, math.pi / 2.0, math.pi]

    def test_hand_built_between_configuration(self):
        # v at the smallest radius; the edge {u, w} is the only one with v between
        radii, angles = np.array([1.0, 0.2, 1.1]), np.array(self.ANGLES)
        g = build_banded(PointSet(ModelParams(3, 0.75, 0.0), radii, angles, MODE_FIXED, 0))
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]], "test setup: a triangle"
        result = check_underpass(g, 200, seed=1)
        assert result.tested == 200 and result.violations == 0

    @pytest.mark.parametrize(
        "radii, edges, violations",
        [
            ([1.0, 0.2, 1.1], [(0, 1), (0, 2)], True),  # the layout above without {v, w}
            ([1.0, 0.5, 0.2], [(0, 2), (1, 2)], False),  # r_w < r_v <= r_u: only {v, w} forced
            ([1.0, 0.5, 0.2], [(0, 2), (0, 1)], True),
            ([0.2, 0.5, 1.0], [(0, 2), (0, 1)], False),  # r_u < r_v <= r_w: only {v, u} forced
            ([0.2, 0.5, 1.0], [(0, 2), (1, 2)], True),
            ([0.5, 0.5, 0.5], [(0, 2), (0, 1)], True),  # equal radii: both forced
            ([0.2, 1.0, 0.5], [(0, 2)], False),  # v above both: nothing forced
        ],
    )
    def test_missing_forced_edge_detected(self, radii, edges, violations):
        g = manual_graph(ModelParams(3, 0.75, 0.0), radii, self.ANGLES, edges)
        result = check_underpass(g, 100, seed=2)
        assert result.tested == 100
        assert result.violations == (100 if violations else 0)

    def test_not_between_control(self):
        # node 2 lies outside the minor arc of the only edge {0, 1}
        g = manual_graph(ModelParams(3, 0.75, 0.0), [1.0] * 3, self.ANGLES, [(0, 1)])
        result = check_underpass(g, 10, seed=3)
        assert result.tested == 0 and result.violations == 0
        assert result.attempts == 100 * 10 + 1000

    def test_deterministic_per_seed(self):
        g = build_banded(sample_fixed(ModelParams(2000, 0.75, 0.0), 29))
        assert check_underpass(g, 5000, seed=4) == check_underpass(g, 5000, seed=4)

    def test_degenerate_graphs(self):
        params = ModelParams(3, 0.75, 0.0)
        edgeless = manual_graph(params, [1.0] * 3, [0.0, 1.0, 2.0], [])
        assert check_underpass(edgeless, 100) == UnderpassResult(0, 0, 0)
        pair = manual_graph(ModelParams(2, 0.75, 0.0), [0.1, 0.1], [0.0, 1.0], [(0, 1)])
        assert check_underpass(pair, 100) == UnderpassResult(0, 0, 0)


class TestCoreClique:
    def test_trivial_cores(self):
        params = ModelParams(2, 0.75, 0.0)
        R = params.R
        empty_core = manual_graph(params, [R, R], [0.0, math.pi], [])
        assert check_core_clique(empty_core)
        single_core = manual_graph(params, [0.1, R], [0.0, math.pi], [])
        assert check_core_clique(single_core)

    def test_generated_graph(self):
        g = build_banded(sample_fixed(ModelParams(20_000, 0.75, 0.0), 29))
        assert check_core_clique(g)

    def test_deleted_core_edge_detected(self):
        ps = sample_fixed(ModelParams(20_000, 0.75, 0.0), 30)
        g = build_banded(ps)
        core = np.nonzero(ps.r <= ps.params.R / 2.0)[0]
        assert core.size >= 2
        drop = (int(core[0]), int(core[1]))
        kept = [
            (int(a), int(b))
            for a, b in g.edges
            if (int(a), int(b)) != drop
        ]
        broken = manual_graph(ps.params, ps.r, ps.phi, kept)
        assert not check_core_clique(broken)


class TestInnerBandHops:
    def test_all_inner_nodes_in_core(self):
        # below R ~ 34 the inner band sits inside the core, so hops are 0
        g = build_banded(sample_fixed(ModelParams(50_000, 0.75, 0.0), 31))
        reach = inner_band_hops(g)
        assert inner_band_radius(g.pointset.params) < g.pointset.params.R / 2.0
        assert reach == InnerBandReach(max_hops=0, anomalies=0)

    def test_disconnected_inner_node_is_anomaly(self):
        # radius 40 disc: inner band reaches beyond the core
        from hrg.sampling import MODE_POISSON

        params = ModelParams.from_radius(40.0, 0.75)
        bound = inner_band_radius(params)
        assert bound > params.R / 2.0
        radii = [1.0, (params.R / 2.0 + bound) / 2.0]
        ps = PointSet(params, np.asarray(radii), np.array([0.0, math.pi]), MODE_POISSON, 0)
        g = Graph.from_edge_array(ps, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert inner_band_hops(g) == InnerBandReach(max_hops=0, anomalies=1)

    def test_core_empty_flagged(self):
        # no core node: both inner-band nodes, between R/2 and the band
        # boundary, count as anomalies
        params = ModelParams.from_radius(40.0, 0.75)
        bound = inner_band_radius(params)
        radii = [(params.R / 2.0 + bound) / 2.0, bound - 0.1]
        assert all(params.R / 2.0 < r <= bound for r in radii)
        ps = PointSet(params, np.asarray(radii), np.array([0.0, math.pi]), MODE_POISSON, 0)
        g = Graph.from_edge_array(ps, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert inner_band_hops(g) == InnerBandReach(max_hops=0, anomalies=2)


class TestGiantContainment:
    def test_core_nodes_carry_giant_label(self):
        ps = sample_fixed(ModelParams(10_000, 0.75, 0.0), 32)
        g = build_banded(ps)
        report = component_report(g)
        core = np.nonzero(ps.r <= ps.params.R / 2.0)[0]
        assert core.size > 0
        assert bool((report.labels[core] == report.giant_label).all())


class TestAnalyzeGraph:
    def test_fields_match_single_analyses(self):
        g = build_banded(sample_fixed(ModelParams(10_000, 0.75, 0.0), 32))
        result = analyze_graph(g, inner_c=1.0)
        assert result.core_size == core_node_ids(g).size > 0
        assert result.core_clique is True and result.core_in_giant is True
        assert result.components.sizes == component_report(g).sizes
        assert result.degrees.mean_degree == degree_stats(g).mean_degree
        assert result.bands.max_empty_sector_run == max_empty_sector_run(g.pointset)
        assert result.reach == inner_band_hops(g)

    def test_core_outside_giant(self):
        # an isolated core node next to a three-node path at the rim
        params = ModelParams(4, 0.75, 0.0)
        R = params.R
        g = manual_graph(params, [0.1, R, R, R], [0.0, 2.0, 2.1, 2.2], [(1, 2), (2, 3)])
        result = analyze_graph(g)
        assert result.core_size == 1
        assert result.core_clique is True
        assert result.core_in_giant is False
