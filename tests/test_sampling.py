"""Tests for the point samplers: inverse CDF, fidelity, Poisson variant."""

import math

import numpy as np
import pytest

from hrg import sampling
from hrg.geometry import MAX_NODES, TWO_PI, ModelParams, mu_ball_origin_exact
from hrg.sampling import (
    MODE_FIXED,
    MODE_POISSON,
    PointSet,
    disjointness_check,
    poisson_counts,
    radial_icdf,
    sample_fixed,
    sample_poisson,
)
from hrg.verify import (
    _chi2_sf,
    _kolmogorov_sf,
    _two_sided_p,
    angle_chisquare,
    fixed_vs_poisson_ks,
    radial_ks,
)


class TestRadialIcdf:
    def test_endpoints(self):
        params = ModelParams(100, 0.75, 0.0)
        assert radial_icdf(0.0, params) == 0.0
        assert radial_icdf(1.0, params) == pytest.approx(params.R, abs=1e-12)

    def test_round_trip_with_measure(self):
        params = ModelParams(1000, 0.75, 0.0)
        rng = np.random.default_rng(0)
        u = rng.random(1000)
        back = mu_ball_origin_exact(radial_icdf(u, params), params)
        assert float(np.abs(back - u).max()) <= 1e-9


class TestSampleFixed:
    def test_single_point(self):
        ps = sample_fixed(ModelParams(1, 0.75, 0.0), 3)
        assert len(ps) == 1
        assert 0.0 <= ps.r[0] <= ps.params.R
        assert 0.0 <= ps.phi[0] < TWO_PI

    def test_count_and_ranges(self):
        params = ModelParams(5000, 0.75, -0.5)
        ps = sample_fixed(params, 11)
        assert len(ps) == params.n
        assert ps.mode == MODE_FIXED
        assert float(ps.r.min()) >= 0.0 and float(ps.r.max()) <= params.R
        assert float(ps.phi.min()) >= 0.0 and float(ps.phi.max()) < TWO_PI

    def test_deterministic_per_seed(self):
        params = ModelParams(500, 0.75, 0.0)
        a = sample_fixed(params, 42)
        b = sample_fixed(params, 42)
        c = sample_fixed(params, 43)
        assert np.array_equal(a.r, b.r) and np.array_equal(a.phi, b.phi)
        assert not np.array_equal(a.r, c.r)

    def test_radial_ks_at_one_percent(self):
        assert radial_ks(sample_fixed(ModelParams(1_000_000, 0.75, 0.0), 5)).pvalue > 0.01

    def test_angle_chisquare_at_one_percent(self):
        assert angle_chisquare(sample_fixed(ModelParams(1_000_000, 0.75, 0.0), 6)).pvalue > 0.01


class TestSamplePoisson:
    def test_mode_and_method(self):
        ps = sample_poisson(ModelParams(100, 0.75, 0.0), 1)
        assert ps.mode == MODE_POISSON
        # the count is numpy's Poisson draw at every mean, small ones too
        small = sample_poisson(ModelParams(5, 0.75, 0.0), 1)
        assert len(small) == np.random.default_rng(1).poisson(5)

    def test_count_above_the_node_limit_draws_no_point(self, monkeypatch):
        # seed 0's first draw at mean 2**31 - 1 is 2,147,501,901; drawing that
        # many points would take 34 GB
        def no_points(*args):
            raise AssertionError("points drawn")

        monkeypatch.setattr(sampling, "_draw_points", no_points)
        assert np.random.default_rng(0).poisson(MAX_NODES) == 2_147_501_901
        with pytest.raises(ValueError, match=r"^Poisson count 2147501901 is above the node limit"):
            sample_poisson(ModelParams(MAX_NODES, 0.75, 0.0), 0)

    def test_deterministic_per_seed(self):
        params = ModelParams(100, 0.75, 0.0)
        a = sample_poisson(params, 9)
        b = sample_poisson(params, 9)
        assert len(a) == len(b)
        assert np.array_equal(a.r, b.r) and np.array_equal(a.phi, b.phi)

    def test_count_moments(self):
        params = ModelParams(100, 0.75, 0.0)
        counts = poisson_counts(params, 10_000, seed=0)
        assert abs(counts.mean() - 100.0) <= 3.0
        assert abs(counts.var(ddof=1) / 100.0 - 1.0) <= 0.10

    def test_probability_of_exact_count(self):
        params = ModelParams(100, 0.75, 0.0)
        counts = poisson_counts(params, 100_000, seed=0)
        emp = float(np.mean(counts == 100))
        stirling = 1.0 / math.sqrt(2.0 * math.pi * 100.0)
        assert stirling / 2.0 <= emp <= stirling * 2.0

    def test_same_marginal_as_fixed(self):
        result, _ = fixed_vs_poisson_ks(21, 100_000)
        assert result.pvalue > 0.01


class TestPoissonCounts:
    @pytest.mark.parametrize("n, seed", [(100, 7), (5, 0), (1, 123)])
    def test_one_generators_draw(self, n, seed):
        counts = poisson_counts(ModelParams(n, 0.75, 0.0), 2000, seed)
        assert counts.dtype == np.int64
        assert counts.tolist() == np.random.default_rng(seed).poisson(n, 2000).tolist()
        if n <= 5:
            assert (counts == 0).any()  # empty draws are counted too

    @pytest.mark.parametrize("n, seed", [(100, 7), (5, 0), (1, 123), (50_000, 3)])
    def test_first_count_is_the_sampler_length(self, n, seed):
        params = ModelParams(n, 0.75, 0.0)
        assert poisson_counts(params, 3, seed)[0] == len(sample_poisson(params, seed))

    def test_zero_trials_is_empty(self):
        counts = poisson_counts(ModelParams(100, 0.75, 0.0), 0, seed=4)
        assert counts.dtype == np.int64 and counts.shape == (0,)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            poisson_counts(ModelParams(100, 0.75, 0.0), -1)


class TestDisjointness:
    @pytest.mark.parametrize("mode", [MODE_POISSON, MODE_FIXED])
    def test_trials_are_consecutive_runs_of_one_draw(self, mode):
        # a recording region sees every trial's points in one call; counting
        # them run by run must give the check's correlation
        params = ModelParams(50, 0.75, 0.0)
        inner = lambda r, phi: r < params.R / 2.0  # noqa: E731
        arc = lambda r, phi: (phi >= 1.0) & (phi < 2.5)  # noqa: E731
        seen = []

        def recording(r, phi):
            seen.append((r, phi))
            return inner(r, phi)

        corr = disjointness_check(recording, arc, params, 500, seed=31, mode=mode)
        counts = poisson_counts(params, 500, 31) if mode == MODE_POISSON else np.full(500, 50)
        [(r, phi)] = seen
        assert r.size == phi.size == counts.sum()
        runs = np.split(np.arange(r.size), np.cumsum(counts)[:-1])
        counts_a = [np.count_nonzero(inner(r[run], phi[run])) for run in runs]
        counts_b = [np.count_nonzero(arc(r[run], phi[run])) for run in runs]
        assert corr == pytest.approx(np.corrcoef(counts_a, counts_b)[0, 1], rel=1e-12)

    def test_unknown_mode_rejected(self):
        region = lambda r, phi: phi < math.pi  # noqa: E731
        with pytest.raises(ValueError):
            disjointness_check(region, region, ModelParams(10, 0.75, 0.0), 10, mode="grid")

    def test_disjoint_halves_independent_under_poisson(self):
        params = ModelParams(100, 0.75, 0.0)
        corr = disjointness_check(
            lambda r, phi: phi < math.pi,
            lambda r, phi: phi >= math.pi,
            params,
            trials=10_000,
            seed=0,
        )
        assert abs(corr) < 0.05

    def test_identical_region_fully_correlated(self):
        params = ModelParams(100, 0.75, 0.0)
        region = lambda r, phi: phi < math.pi  # noqa: E731
        corr = disjointness_check(region, region, params, trials=200, seed=1)
        assert corr == pytest.approx(1.0)

    def test_fixed_sampler_anticorrelated_on_complement(self):
        params = ModelParams(100, 0.75, 0.0)
        corr = disjointness_check(
            lambda r, phi: phi < math.pi,
            lambda r, phi: phi >= math.pi,
            params,
            trials=2000,
            seed=2,
            mode=MODE_FIXED,
        )
        assert corr < -0.5


class TestPointSetValidation:
    def test_fixed_count_mismatch_rejected(self):
        params = ModelParams(3, 0.75, 0.0)
        with pytest.raises(ValueError):
            PointSet(params, np.array([1.0]), np.array([0.0]), MODE_FIXED, 0)

    def test_out_of_range_rejected(self):
        params = ModelParams(1, 0.75, 0.0)
        with pytest.raises(ValueError):
            PointSet(params, np.array([params.R + 1.0]), np.array([0.0]), MODE_FIXED, 0)
        with pytest.raises(ValueError):
            PointSet(params, np.array([0.5]), np.array([TWO_PI]), MODE_FIXED, 0)
        nan = float("nan")
        for r, phi in (([nan, 1.0], [0.5, nan]), ([nan], [0.5]), ([1.0], [nan])):
            with pytest.raises(ValueError):
                PointSet(ModelParams(3, 0.75, 0.0), np.array(r), np.array(phi), MODE_POISSON, 0)

    def test_arrays_are_read_only(self):
        ps = sample_fixed(ModelParams(10, 0.75, 0.0), 0)
        with pytest.raises(ValueError):
            ps.r[0] = 1.0


@pytest.mark.parametrize("z", [0.0, 0.5, -1.96, 3.0, 8.0])
def test_two_sided_p_is_the_normal_tail(z):
    from scipy import stats

    assert _two_sided_p(z) == pytest.approx(2.0 * stats.norm.sf(abs(z)), rel=1e-13, abs=0.0)


class TestStatisticsAgainstScipy:
    """The numpy statistics of ``hrg verify`` against scipy's: D and the
    chi-square sum bit for bit, the p-values to their closed forms'
    precision."""

    @pytest.mark.parametrize("seed, alpha", [(0, 0.75), (3, 0.75), (2, 0.77), (3, 0.77)])
    def test_radial_ks(self, seed, alpha):
        # radii drawn at alpha 0.75 and tested at 0.77 give p of 1e-2 and
        # 3e-5; at 0.75 seed 0's D is D- and seed 3's D+
        from scipy import stats

        r = sample_fixed(ModelParams(25_000, 0.75, 0.0), seed).r
        ps = PointSet(ModelParams(25_000, alpha, 0.0), r, np.zeros_like(r), MODE_FIXED, seed)
        ours = radial_ks(ps)
        ref = stats.kstest(ps.r, lambda x: np.asarray(mu_ball_origin_exact(x, ps.params)))
        assert ours.statistic == ref.statistic
        assert ours.pvalue == pytest.approx(ref.pvalue, rel=1e-5, abs=0.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fixed_vs_poisson_ks(self, seed):
        # both samples above 10,000 radii, where scipy takes the asymptotic
        # form; seed 0's D is the larger positive gap, seed 1's the negative
        from scipy import stats

        ours, size = fixed_vs_poisson_ks(seed, 25_000)
        params = ModelParams(25_000, 0.75, 0.0)
        poisson = sample_poisson(params, seed + 1)
        ref = stats.ks_2samp(sample_fixed(params, seed).r, poisson.r)
        assert size == len(poisson)
        assert ours.statistic == ref.statistic
        assert ours.pvalue == pytest.approx(ref.pvalue, rel=1e-5, abs=0.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_angle_chisquare(self, seed):
        from scipy import stats

        ps = sample_fixed(ModelParams(25_000, 0.75, 0.0), seed)
        ours = angle_chisquare(ps)
        bins = np.minimum((ps.phi / TWO_PI * 100).astype(int), 99)
        ref = stats.chisquare(np.bincount(bins, minlength=100))
        assert ours.statistic == ref.statistic
        assert ours.pvalue == pytest.approx(ref.pvalue, rel=1e-12, abs=0.0)

    def test_chi2_tail(self):
        from scipy import stats

        assert _chi2_sf(0.0, 99) == 1.0
        for x in np.geomspace(1.0, 400.0, 40):
            assert _chi2_sf(x, 99) == pytest.approx(stats.chi2.sf(x, 99), rel=1e-12, abs=0.0)

    # scipy takes O(n) per call where z = sqrt(n) x >= 1.48 (its exact
    # one-sided sum), about 1 s at n = 10^6, so that n skips three such z
    @pytest.mark.parametrize(
        "n, z",
        [(n, z) for n in (25_000, 50_000, 100_000) for z in (0.3, 0.8, 1.3, 1.8, 2.3, 2.8, 3.3)]
        + [(1_000_000, z) for z in (0.3, 0.8, 1.3, 3.3)],
    )
    def test_kolmogorov_tail(self, n, z):
        from scipy import stats

        x = z / math.sqrt(n)
        assert _kolmogorov_sf(n, x) == pytest.approx(stats.kstwo.sf(x, n), rel=1e-5, abs=0.0)

    def test_kolmogorov_tail_ends(self):
        assert _kolmogorov_sf(25_000, 0.0) == 1.0
        assert _kolmogorov_sf(25_000, 1.0) == 0.0
        assert _kolmogorov_sf(25_000, 0.01 / math.sqrt(25_000)) == 1.0  # the CDF underflows
