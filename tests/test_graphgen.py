"""Tests for the graph builders: oracle equivalence, windows, speed."""

import math
import time

import numpy as np
import pytest
from conftest import mp_distance

from hrg.geometry import ModelParams, edge_mask, theta_exact
from hrg.graphgen import (
    BandIndex,
    Graph,
    build_banded,
    build_naive,
    layer_of_radius,
    theta_upper,
)
from hrg.sampling import MODE_FIXED, MODE_POISSON, PointSet, sample_fixed, sample_poisson


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
        assert g.edges.tolist() == [[0, 1]]

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
        assert {tuple(e) for e in g.edges.tolist()} == expected


class TestBandedEquivalence:
    def test_matches_naive_on_fifty_graphs(self):
        rng = np.random.default_rng(10)
        sizes = [10] * 20 + [100] * 20 + [1000] * 10
        for n in sizes:
            params = ModelParams(n, 0.75, 0.0)
            ps = sample_fixed(params, int(rng.integers(2**63)))
            fast = build_banded(ps)
            slow = build_naive(ps)
            assert np.array_equal(fast.edges, slow.edges)

    def test_matches_naive_on_poisson_mode(self):
        ps = sample_poisson(ModelParams(300, 0.75, 0.0), 4)
        assert np.array_equal(build_banded(ps).edges, build_naive(ps).edges)

    def test_matches_naive_off_regime(self):
        # window bound must stay sound for any positive alpha
        for alpha in (0.55, 0.95, 1.5):
            ps = sample_fixed(ModelParams(400, alpha, 0.0), 7)
            assert np.array_equal(build_banded(ps).edges, build_naive(ps).edges)

    def test_empty_pointset(self):
        params = ModelParams(4, 0.75, 0.0)
        ps = manual_pointset(params, [], [], mode=MODE_POISSON)
        g = build_banded(ps)
        assert g.n == 0 and g.m == 0


class TestThetaUpper:
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
        rng = np.random.default_rng(11)
        samples = 0
        for n in (2**11, 10**4, 2 * 10**5):
            R = ModelParams(n, 0.75, 0.0).R
            top = int(math.floor(R)) + 1
            for i in range(1, top + 1):
                for j in range(i, top + 1):
                    bound = theta_upper(i, j, R)
                    if bound >= math.pi:
                        continue
                    r = rng.uniform(R - i, R - i + 1.0, 500)
                    y = rng.uniform(R - j, R - j + 1.0, 500)
                    worst = float(np.max(theta_exact(r, y, R)))
                    edge = theta_exact(R - i + 1e-12, R - j + 1e-12, R)
                    assert max(worst, edge) <= bound
                    samples += 500
        assert samples >= 100_000


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
        assert bool(np.all(g.edges[:, 0] < g.edges[:, 1]))
        order = np.lexsort((g.edges[:, 1], g.edges[:, 0]))
        assert bool(np.all(order == np.arange(g.m)))

    def test_every_edge_satisfies_indicator(self):
        ps = sample_fixed(ModelParams(300, 0.75, 0.0), 14)
        g = build_banded(ps)
        a, b = g.edges.T
        assert edge_mask(ps.r[a], ps.phi[a], ps.r[b], ps.phi[b], ps.params.R).all()


def lexsort_csr(n, us, vs):
    """The two-lexsort CSR construction that ``Graph.from_edge_array``
    replaced by sorts of packed keys; the reference for its output."""
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    order = np.lexsort((hi, lo))
    edges = np.column_stack((lo[order], hi[order]))
    src = np.concatenate((edges[:, 0], edges[:, 1]))
    dst = np.concatenate((edges[:, 1], edges[:, 0]))
    indices = dst[np.lexsort((dst, src))]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return edges, indices, indptr


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
            built = (g.edges, g.indices, g.indptr)
            for got, want in zip(built, lexsort_csr(n, us.astype(np.int64), vs.astype(np.int64))):
                assert got.dtype == want.dtype == np.int64
                assert got.shape == want.shape and np.array_equal(got, want)
                assert not got.flags.writeable


class TestMonotonicity:
    def test_shrinking_radius_preserves_edges(self):
        ps = sample_fixed(ModelParams(2000, 0.75, 0.0), 15)
        g = build_banded(ps)
        R = ps.params.R
        rng = np.random.default_rng(16)
        a, b = g.edges[rng.integers(0, g.m, 10_000)].T
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
