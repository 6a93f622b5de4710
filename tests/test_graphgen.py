"""Tests for the graph builders: oracle equivalence, windows, speed."""

import importlib.util
import math
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import mp_distance, tied_pointset

from hrg import graphgen
from hrg.geometry import MAX_RADIUS, ModelParams, edge_mask, theta_exact
from hrg.graphgen import (
    BandIndex,
    Graph,
    angle_order,
    band_count,
    build_banded,
    build_naive,
    concatenated_ranges,
    layer_of_radius,
    theta_upper,
)
from hrg.sampling import MODE_FIXED, MODE_POISSON, PointSet, sample_fixed, sample_poisson
from hrg.verify import banded_naive_mismatches, theta_upper_excess

LAYERS = Path(__file__).resolve().parent.parent / "hrgbench" / "layers.py"


def manual_pointset(params, radii, angles, mode=MODE_FIXED):
    return PointSet(params, np.asarray(radii, float), np.asarray(angles, float), mode, 0)


class TestBuildNaive:
    def test_single_node(self):
        g = build_naive(sample_fixed(ModelParams(1, 0.75, 0.0), 0))
        assert g.m == 0 and g.n == 1

    def test_two_central_points_connect(self):
        params = ModelParams(2, 0.75, 0.0)
        ps = manual_pointset(params, [0.1, 0.1], [0.3, 4.0])
        g = build_naive(ps)
        assert list(zip(*g.edges())) == [(0, 1)]

    def test_hand_placed_configuration_against_oracle(self):
        params = ModelParams(5, 0.75, 0.0)
        R = params.R
        radii = [0.5, 1.2, R, R - 0.3, 2.0]
        angles = [0.0, 1.0, math.pi, 4.5, 2.0]
        ps = manual_pointset(params, radii, angles)
        g = build_naive(ps)
        expected = set()
        for a in range(5):
            for b in range(a + 1, 5):
                if mp_distance(radii[a], angles[a], radii[b], angles[b]) <= R:
                    expected.add((a, b))
        assert set(zip(*g.edges())) == expected

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_row_blocks_keep_the_edges(self, monkeypatch, rows):
        ps = sample_fixed(ModelParams(300, 0.75, 0.0), 4)
        if rows is not None:
            monkeypatch.setattr(graphgen, "ARRAY_BLOCK", rows * len(ps))
        r, phi = ps.r, ps.phi
        whole = np.nonzero(np.triu(edge_mask(r[:, None], phi[:, None], r, phi, ps.params.R), 1))
        assert np.array_equal(build_naive(ps).edges(), whole)
        assert whole[0].size > 300

    def test_tests_only_the_upper_triangle(self, monkeypatch):
        ps = sample_fixed(ModelParams(300, 0.75, 0.0), 4)
        tested = []

        def counting_mask(*args):
            mask = edge_mask(*args)
            tested.append(mask.size)
            return mask

        monkeypatch.setattr(graphgen, "edge_mask", counting_mask)
        build_naive(ps)
        assert 0 < sum(tested) <= 0.6 * len(ps) ** 2

    def test_memory_is_bounded_by_the_block(self):
        ps = sample_fixed(ModelParams(2000, 0.75, 0.0), 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build_naive(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 16 * 2**20


class TestBandedEquivalence:
    def test_matches_naive_on_fifty_graphs(self):
        sizes = [10] * 20 + [100] * 20 + [1000] * 10
        assert banded_naive_mismatches(np.random.default_rng(10), sizes) == 0

    def test_matches_naive_on_poisson_mode(self):
        ps = sample_poisson(ModelParams(300, 0.75, 0.0), 4)
        assert np.array_equal(build_banded(ps).edges(), build_naive(ps).edges())

    def test_matches_naive_off_regime(self):
        # window bound must stay sound for any positive alpha
        for alpha in (0.55, 0.95, 1.5):
            ps = sample_fixed(ModelParams(400, alpha, 0.0), 7)
            assert np.array_equal(build_banded(ps).edges(), build_naive(ps).edges())

    def test_empty_pointset(self):
        params = ModelParams(4, 0.75, 0.0)
        ps = manual_pointset(params, [], [], mode=MODE_POISSON)
        g = build_banded(ps)
        assert g.n == 0 and g.m == 0

    def test_full_circle_window_holds_each_node_once(self):
        # the first three radii fall in bands whose self-pair gets a window
        # of half-width pi; at angles 0, pi and just below 2pi that window
        # reaches one node from both ends of the doubled angle array
        params = ModelParams(1000, 0.75, 0.0)
        R = params.R
        radii = [0.5, 0.7, 0.9, R - 0.2, R - 0.3, R / 2 + 0.1]
        angles = [0.0, math.pi, np.nextafter(2 * math.pi, 0), math.pi, 0.0, math.pi / 2]
        ps = manual_pointset(params, radii, angles, mode=MODE_POISSON)
        assert theta_upper(layer_of_radius(0.5, R), layer_of_radius(0.5, R), R) == math.pi
        assert np.array_equal(build_banded(ps).edges(), build_naive(ps).edges())

    def test_inner_band_larger_than_outer(self):
        # band sizes fall off toward the centre only in expectation: here the
        # 40 nodes of band 5 look up their windows among the 3 nodes of band 3,
        # at angles within 1e-12 of the window edges and of the exact
        # threshold, on both sides of 0 = 2pi
        params = ModelParams(1000, 0.75, 0.0)
        R = params.R
        width = theta_upper(3, 5, R)
        assert width < 0.2
        # radii near the bands' inner edges put the threshold near the window edge
        outer_r = R - 3 + np.array([1e-9, 0.05, 0.3])
        outer_phi = np.array([0.0, math.pi, np.nextafter(2 * math.pi, 0)])
        rng = np.random.default_rng(31)
        inner_r = R - 5 + rng.uniform(1e-9, 1e-3, 39)
        # per outer node: 13 inner nodes at -+width and -+threshold, each
        # nudged by -1e-12, 0 and 1e-12, and one at the outer node's angle
        center = np.repeat(np.arange(3), 13)
        sign = np.tile([-1] * 3 + [1] * 3 + [-1] * 3 + [1] * 3 + [0], 3)
        threshold = theta_exact(outer_r[center], inner_r, R)
        reach = np.where(np.tile(np.arange(13) < 6, 3), width, threshold)
        nudge = np.tile([-1e-12, 0.0, 1e-12] * 4 + [0.0], 3)
        inner_phi = np.mod(outer_phi[center] + sign * reach + nudge, 2 * math.pi)
        inner_r, inner_phi = np.append(inner_r, R - 4.5), np.append(inner_phi, 2.0)
        radii, angles = np.concatenate((outer_r, inner_r)), np.concatenate((outer_phi, inner_phi))
        ps = manual_pointset(params, radii, angles, mode=MODE_POISSON)
        assert [ids.size for ids in BandIndex.build(ps).ids[2:5]] == [3, 0, 40]
        banded = build_banded(ps)
        assert np.array_equal(banded.edges(), build_naive(ps).edges())
        assert np.count_nonzero(banded.edges()[0] < 3) > 0

    @pytest.mark.parametrize(
        "n, C, bands", [(3, 38.82 - 2.0 * math.log(3), (1, 2)), (4096, 24.95, (1, 1))]
    )
    def test_matches_naive_at_the_inner_corner(self, n, C, bands):
        # two nodes at the innermost radii of bands i and j, where the true
        # threshold angle comes closest to the window, at the largest angle
        # the edge test accepts: the window must still hold the pair
        params = ModelParams(n, 0.75, C)
        R = params.R
        r, y = (np.nextafter(R - band, R) for band in bands)
        lo, hi = 0.0, math.pi
        while np.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if edge_mask(r, 0.0, y, mid, R) else (lo, mid)
        ps = manual_pointset(params, [r, y], [0.0, lo], mode=MODE_POISSON)
        assert [layer_of_radius(radius, R) for radius in (r, y)] == list(bands)
        assert list(zip(*build_naive(ps).edges())) == [(0, 1)]
        assert list(zip(*build_banded(ps).edges())) == [(0, 1)]

    def test_matches_naive_at_the_largest_radius(self):
        # coincident and nearly coincident rim nodes, one node near the
        # centre and one at R/2: no sinh product overflows at MAX_RADIUS
        params = ModelParams(6, 0.75, MAX_RADIUS - 2.0 * math.log(6))
        R = params.R
        radii = [R, R, R, R, 0.5, R / 2]
        angles = [0.0, 0.0, 1e-80, 1e-70, 0.5, 2.0]
        ps = manual_pointset(params, radii, angles, mode=MODE_POISSON)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            naive, banded = build_naive(ps).edges(), build_banded(ps).edges()
        expected = [(0, 1), (0, 2), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4), (4, 5)]
        assert list(zip(*naive)) == expected
        assert np.array_equal(banded, naive)
        assert band_count(R) <= np.iinfo(np.int16).max  # BandIndex's band labels

    @pytest.mark.parametrize("alpha", [0.55, 0.65, 0.85])
    @pytest.mark.parametrize("C", [-1.0, 2.0])
    def test_matches_naive_across_alpha(self, alpha, C):
        ps = sample_fixed(ModelParams(2000, alpha, C), 32)
        assert np.array_equal(build_banded(ps).edges(), build_naive(ps).edges())


class TestAngleOrder:
    @pytest.mark.parametrize(
        "phi",
        [
            [],
            [1.5],
            [0.0, 0.0],
            [3.0, 1.0, 3.0, 0.5, 1.0, 3.0, 0.0, 0.5],
            np.repeat(np.random.default_rng(1).random(40), 5),
            np.random.default_rng(2).integers(0, 4, 1000) * 0.25,
            np.random.default_rng(3).random(1000),
        ],
        ids=["n0", "n1", "pair", "hand", "runs", "grid", "distinct"],
    )
    def test_equals_stable_argsort(self, phi):
        phi = np.asarray(phi, dtype=float)
        order = angle_order(phi)
        assert order.dtype == np.int64
        assert np.array_equal(order, np.argsort(phi, kind="stable"))


class TestConcatenatedRanges:
    @pytest.mark.parametrize(
        "size, most", [(0, 5), (6, 0), (1, 7), (50, 1), (200, 12)],
        ids=["empty", "all-zero", "one", "short", "long"],
    )
    def test_equals_arange_loop(self, size, most):
        rng = np.random.default_rng(size + most)
        starts = rng.integers(-100, 100, size)
        counts = rng.integers(0, most + 1, size)
        got = concatenated_ranges(starts, counts)
        parts = [np.arange(a, a + k, dtype=np.int64) for a, k in zip(starts, counts)]
        assert got.dtype == np.int64
        assert np.array_equal(got, np.concatenate(parts or [np.empty(0, np.int64)]))


def stable_band_ids(ps):
    """Per-band node ids by a stable argsort of each band's angles."""
    band_of = layer_of_radius(ps.r, ps.params.R)
    ids = []
    for i in range(1, band_count(ps.params.R) + 1):
        members = np.nonzero(band_of == i)[0]
        ids.append(members[np.argsort(ps.phi[members], kind="stable")])
    return ids


class TestBandIndexOrder:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: sample_fixed(ModelParams(3000, 0.75, 0.0), 5),
            lambda: sample_poisson(ModelParams(3000, 0.6, 1.0), 6),
            tied_pointset,
        ],
        ids=["fixed", "poisson", "tied"],
    )
    def test_matches_per_band_stable_argsort(self, make):
        ps = make()
        bands = BandIndex.build(ps)
        reference = stable_band_ids(ps)
        assert bands.count == len(reference)
        for ids, angles, want in zip(bands.ids, bands.angles, reference):
            assert np.array_equal(ids, want)
            assert np.array_equal(angles, ps.phi[want])

    def test_tied_angles_keep_the_naive_edges(self):
        ps = tied_pointset()
        band_of = layer_of_radius(ps.r, ps.params.R)
        outer = ps.phi[band_of == 1]
        assert np.unique(outer).size < outer.size  # ties inside one band
        assert np.intersect1d(outer, ps.phi[band_of == 2]).size > 0  # and across bands
        assert np.array_equal(build_banded(ps).edges(), build_naive(ps).edges())


class TestCandidateCount:
    @pytest.mark.parametrize(
        "n, C, seed",
        [(1, 0.0, 1), (2, 0.0, 1), (2**11, 0.0, 1), (2**14, 0.0, 3), (5000, -2.0, 2), (3000, 3.0, 5)],
    )
    def test_matches_benchmark_counter(self, monkeypatch, n, C, seed):
        # the benchmark reports ``graphgen.candidates`` from outside the builder;
        # this keeps that count equal to the pairs the builder really tests
        spec = importlib.util.spec_from_file_location("hrgbench_layers", LAYERS)
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        tested = []

        def counting_edge_mask(r_a, phi_a, r_b, phi_b, R):
            tested.append(np.size(r_a))
            return edge_mask(r_a, phi_a, r_b, phi_b, R)

        monkeypatch.setattr(graphgen, "edge_mask", counting_edge_mask)
        ps = sample_fixed(ModelParams(n, 0.75, C), seed)
        build_banded(ps)
        assert sum(tested) == layers.candidate_counts(ps)[0]


def theta_upper_excess_oracle(rng, samples_per_pair, theta=theta_exact):
    """``theta_upper_excess`` pair by pair: a scalar ``theta`` at the pair's
    inner corner, then ``Generator.uniform`` draws of its r and y."""
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
                edge = theta(lo_r + 1e-12, lo_y + 1e-12, R)
                r = rng.uniform(lo_r, lo_r + 1.0, samples_per_pair)
                y = rng.uniform(lo_y, lo_y + 1.0, samples_per_pair)
                inside = float(np.max(theta(r, y, R)))
                worst = max(worst, max(edge, inside) - bound)
    return pairs, worst


class TestThetaUpper:
    @pytest.mark.parametrize("samples", [20, 500])
    @pytest.mark.parametrize("seed", [1, 2, 11])
    def test_matches_per_pair_loop(self, seed, samples, monkeypatch):
        # the same result, the same radius pairs tested, the same draws used
        seen = {"ours": [], "oracle": []}

        def recording(key):
            def theta(r, y, R):
                r, y = np.broadcast_arrays(r, y)
                seen[key].append(np.stack((r.ravel(), y.ravel())))
                return theta_exact(r, y, R)

            return theta

        ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        monkeypatch.setattr("hrg.verify.theta_exact", recording("ours"))
        expected = theta_upper_excess_oracle(oracle, samples, recording("oracle"))
        assert theta_upper_excess(ours, samples) == expected
        assert ours.random() == oracle.random()
        tested = {key: np.hstack(parts) for key, parts in seen.items()}
        for key, pairs in tested.items():
            tested[key] = pairs[:, np.lexsort(pairs[::-1])]
        assert np.array_equal(tested["ours"], tested["oracle"])

    def test_central_band_pairs_get_full_circle(self):
        R = 20.0
        assert theta_upper(10, 10, R) == math.pi
        assert theta_upper(9, 9, R) == math.pi  # i + j = R - 2 boundary

    def test_outermost_bands_vanish_for_large_radius(self):
        R = 30.0
        expected = 2.0 * math.exp((2.0 - R) / 2.0)
        assert theta_upper(1, 1, R) == pytest.approx(expected, rel=1e-3)
        assert theta_upper(1, 1, 200.0) < 1e-8  # guard floor, still vanishing

    def test_soundness_against_exact_threshold(self):
        pairs, excess = theta_upper_excess(np.random.default_rng(11), 500)
        assert excess <= 0.0
        assert pairs * 500 >= 100_000


class TestGraphStructure:
    def test_handshake_and_symmetry(self):
        g = build_banded(sample_fixed(ModelParams(2000, 0.75, 0.0), 12))
        assert int(g.degrees.sum()) == 2 * g.m
        for u in range(0, g.n, 97):
            for v in g.neighbors(u):
                assert u in g.neighbors(int(v))
                assert int(v) != u

    def test_adjacency_sorted_and_edges_canonical(self):
        g = build_banded(sample_fixed(ModelParams(500, 0.75, 0.0), 13))
        for u in range(g.n):
            row = g.neighbors(u)
            assert bool(np.all(np.diff(row) > 0))
        small, large = g.edges()
        assert bool(np.all(small < large))
        order = np.lexsort((large, small))
        assert bool(np.all(order == np.arange(g.m)))

    def test_neighbors_concatenates_csr_slices(self):
        g = build_banded(sample_fixed(ModelParams(500, 0.75, 0.0), 13))

        def sliced(nodes):
            rows = [g.indices[g.indptr[u] : g.indptr[u + 1]] for u in nodes]
            return np.concatenate([np.empty(0, dtype=np.int64)] + rows)

        hub = int(np.argmax(g.degrees))
        assert np.array_equal(g.neighbors(hub), sliced([hub]))
        assert np.array_equal(g.neighbors(np.int64(hub)), sliced([hub]))
        assert g.neighbors(np.array([], dtype=np.int64)).size == 0
        assert g.neighbors([]).dtype == np.int64
        nodes = np.array([hub, 7, 3, hub, 499, 0, 7])
        assert np.array_equal(g.neighbors(nodes), sliced(nodes))
        assert np.array_equal(g.neighbors(np.arange(g.n)), g.indices)

    def test_every_edge_satisfies_indicator(self):
        ps = sample_fixed(ModelParams(300, 0.75, 0.0), 14)
        g = build_banded(ps)
        a, b = g.edges()
        assert edge_mask(ps.r[a], ps.phi[a], ps.r[b], ps.phi[b], ps.params.R).all()


def lexsort_csr(n, us, vs):
    """The two-lexsort CSR construction that ``Graph.from_edge_array``
    replaced by sorts of packed keys; the reference for its output."""
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    order = np.lexsort((hi, lo))
    small, large = lo[order], hi[order]
    src = np.concatenate((small, large))
    dst = np.concatenate((large, small))
    indices = dst[np.lexsort((dst, src))]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return small, large, indices, indptr


class TestCsrBuild:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 400])
    def test_matches_lexsort_reference(self, n):
        rng = np.random.default_rng(n)
        params = ModelParams(max(n, 1), 0.75, 0.0)
        ps = manual_pointset(params, np.zeros(n), np.zeros(n), mode=MODE_POISSON)
        pairs = n * (n - 1) // 2
        for m in sorted({0, min(1, pairs), pairs // 7, pairs}):
            iu, iv = np.triu_indices(n, k=1)
            pick = rng.permutation(pairs)[:m]
            us, vs = iu[pick], iv[pick]
            swap = rng.random(m) < 0.5
            us, vs = np.where(swap, vs, us), np.where(swap, us, vs)
            g = Graph.from_edge_array(ps, us, vs)
            built = (*g.edges(), g.indices, g.indptr)
            for got, want in zip(built, lexsort_csr(n, us.astype(np.int64), vs.astype(np.int64))):
                assert got.dtype == want.dtype == np.int64
                assert got.shape == want.shape and np.array_equal(got, want)
            assert g.m == m
            assert not g.indices.flags.writeable and not g.indptr.flags.writeable

    def test_retains_only_the_csr(self):
        # the CSR is the only adjacency a graph keeps, and the build's peak
        # beside its inputs stays within 2.5 arrays of 2m int64 half-edges
        ps = sample_fixed(ModelParams(20_000, 0.75, 0.0), 1)
        us, vs = build_banded(ps).edges()
        half_edges = 16 * us.size
        assert us.size == 58_008
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = Graph.from_edge_array(ps, us, vs)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained - before <= g.indices.nbytes + g.indptr.nbytes + 4096
        assert peak - before <= 2.5 * half_edges


class TestBandPassMemory:
    def test_band_passes_peak_below_the_csr_build(self, monkeypatch):
        # the queries run in blocks, so the band passes hold less than the
        # CSR build that follows them; one pass over the whole suffix held
        # about twice as much (a block is a quarter of the nodes at 2^16)
        ps = sample_fixed(ModelParams(2**19, 0.75, 0.0), 1)
        build_csr = Graph.from_edge_array
        peaks = []

        def recording_build(ps, us, vs):
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            tracemalloc.reset_peak()
            g = build_csr(ps, us, vs)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return g

        monkeypatch.setattr(Graph, "from_edge_array", recording_build)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build_banded(ps)
        finally:
            tracemalloc.stop()
        passes, csr = peaks
        assert 0 < passes <= csr


class TestEdgeRows:
    def test_node_ranges_concatenate_to_all_rows(self):
        g = build_banded(sample_fixed(ModelParams(2000, 0.75, 0.0), 19))
        small, large = g.edges()
        assert small.shape == large.shape == (g.m,)
        hub = int(np.argmax(g.degrees))
        rng = np.random.default_rng(20)
        splits = [[], [hub, hub + 1], list(range(0, g.n, 97)), [g.n // 2, g.n // 2]]
        splits.append(sorted(rng.integers(0, g.n + 1, 40).tolist()))
        for cuts in splits:
            bounds = [0, *cuts, g.n]
            parts = [g.edges(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
            assert np.array_equal([np.concatenate(column) for column in zip(*parts)], (small, large))
        assert np.array_equal(g.edges(hub), (small[small >= hub], large[small >= hub]))

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_no_edges_give_empty_int64_rows(self, n):
        params = ModelParams(max(n, 1), 0.75, 0.0)
        ps = manual_pointset(params, np.zeros(n), np.zeros(n), mode=MODE_POISSON)
        g = Graph.from_edge_array(ps, [], [])
        assert g.m == 0
        for edges in (g.edges(), g.edges(0, n), g.edges(n, n)):
            assert all(ids.shape == (0,) and ids.dtype == np.int64 for ids in edges)


class TestMonotonicity:
    def test_shrinking_radius_preserves_edges(self):
        ps = sample_fixed(ModelParams(2000, 0.75, 0.0), 15)
        g = build_banded(ps)
        R = ps.params.R
        rng = np.random.default_rng(16)
        pick = rng.integers(0, g.m, 10_000)
        a, b = (ids[pick] for ids in g.edges())
        shrunk_a = ps.r[a] * rng.uniform(0.0, 1.0, a.size)
        assert edge_mask(shrunk_a, ps.phi[a], ps.r[b], ps.phi[b], R).all()
        shrunk_b = ps.r[b] * rng.uniform(0.0, 1.0, b.size)
        assert edge_mask(ps.r[a], ps.phi[a], shrunk_b, ps.phi[b], R).all()


class TestLayerIndex:
    def test_band_convention(self):
        R = 9.5
        assert layer_of_radius(R, R) == 1
        assert layer_of_radius(R - 0.5, R) == 1
        assert layer_of_radius(R - 1.0, R) == 2  # half-open boundary
        assert layer_of_radius(0.0, R) == 10

    def test_band_index_partitions_points(self):
        ps = sample_fixed(ModelParams(1000, 0.75, 0.0), 17)
        bands = BandIndex.build(ps)
        total = sum(ids.size for ids in bands.ids)
        assert total == len(ps)
        R = ps.params.R
        for i, ids in enumerate(bands.ids, start=1):
            if ids.size:
                assert float(ps.r[ids].min()) > R - i - 1e-12
                assert float(ps.r[ids].max()) <= R - i + 1.0


class TestSpeed:
    def test_banded_at_least_twenty_times_faster(self):
        # measure the banded build, then run naive row blocks until the
        # 20x budget is exceeded: a lower bound on the full naive time
        ps = sample_fixed(ModelParams(100_000, 0.75, 0.0), 18)
        t0 = time.perf_counter()
        g = build_banded(ps)
        banded_seconds = time.perf_counter() - t0
        assert g.m > 0

        budget = 20.0 * banded_seconds
        from hrg.geometry import edge_mask

        r, phi, R = ps.r, ps.phi, ps.params.R
        n = len(ps)
        cols = np.arange(n)
        naive_seconds = 0.0
        t1 = time.perf_counter()
        for a in range(0, n - 1, 80):
            rows = np.arange(a, min(a + 80, n - 1))
            mask = edge_mask(r[rows, None], phi[rows, None], r[None, :], phi[None, :], R)
            mask &= cols[None, :] > rows[:, None]
            np.nonzero(mask)
            naive_seconds = time.perf_counter() - t1
            if naive_seconds > budget:
                break
        assert naive_seconds > budget, (
            f"naive finished in {naive_seconds:.2f}s, banded took {banded_seconds:.2f}s"
        )
