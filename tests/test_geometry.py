"""Tests for disc geometry: distances, thresholds, measures."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import mp_distance, mp_theta, mp_theta_decay

from hrg import geometry
from hrg.geometry import (
    MAX_NODES,
    MAX_RADIUS,
    TWO_PI,
    ModelParams,
    edge_mask,
    mu_ball_origin_exact,
    mu_lens_approx,
    mu_monte_carlo,
    pair_distances,
    radial_icdf,
    theta_approx,
    theta_exact,
)
from hrg.verify import (
    ball_measure_gap,
    distance_identities,
    lens_measure,
    threshold_consistency,
)


class TestModelParams:
    def test_radius_identity(self):
        for n, c in [(1, 0.0), (100, 0.0), (10**5, -1.5), (7, 2.25)]:
            params = ModelParams(n, 0.75, c)
            assert params.R == 2.0 * math.log(n) + c

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ModelParams(0, 0.75, 0.0)
        with pytest.raises(ValueError):
            ModelParams(10, 0.0, 0.0)
        with pytest.raises(ValueError):
            ModelParams(10, -1.0, 0.0)

    def test_rejects_non_finite_and_out_of_range(self):
        for alpha, c in [
            (math.inf, 0.0),
            (math.nan, 0.0),
            (0.75, math.nan),
            (0.75, -math.inf),
            (0.75, -100.0),  # R < 0
            (1000.0, 0.0),  # alpha * R >= 700
        ]:
            with pytest.raises(ValueError):
                ModelParams(10, alpha, c)
        assert ModelParams(1, 0.75, 0.0).R == 0.0

    @pytest.mark.parametrize("radius", [355.5, 360.0, 712.0, 900.0])
    def test_rejects_radii_where_the_edge_test_overflows(self, radius):
        # below alpha * R = 700 at alpha = 0.75, but 2 sinh(R)^2 overflows
        # from R = 355.24 on, and the builders then disagree on the edges
        with pytest.raises(ValueError, match="overflows"):
            ModelParams(200, 0.75, radius - 2.0 * math.log(200))

    def test_largest_radius_keeps_the_edge_test_finite(self):
        params = ModelParams(200, 0.75, MAX_RADIUS - 2.0 * math.log(200))
        assert params.R == pytest.approx(MAX_RADIUS, abs=1e-9)
        assert math.isfinite(2.0 * math.sinh(math.nextafter(params.R, math.inf)) ** 2)

    def test_degree_exponent(self):
        assert ModelParams(10, 0.75, 0.0).degree_exponent == 2.5
        assert ModelParams(10, 0.3, 0.0).degree_exponent == 2.0

    def test_from_radius(self):
        params = ModelParams.from_radius(30.0, 0.75)
        assert abs(params.R - 30.0) < 1e-5

    def test_node_count_bound(self):
        # every node id fits in an int32
        assert ModelParams(MAX_NODES, 0.75, 0.0).n == 2**31 - 1
        for n in (2**31, 3 * 10**9):
            with pytest.raises(ValueError, match=r"^node count must be below 2\*\*31, got "):
                ModelParams(n, 0.75, 0.0)
        # past 2 ln MAX_NODES, C makes up the radius
        params = ModelParams.from_radius(50.0, 0.75)
        assert params.n == MAX_NODES and params.R == pytest.approx(50.0, rel=1e-15)


class TestHyperbolicDistance:
    def test_identity(self):
        assert pair_distances(3.0, 1.0, 3.0, 1.0) == 0.0

    def test_against_high_precision_oracle(self):
        d = pair_distances(5.0, 0.0, 5.0, math.pi)
        assert abs(d - float(mp_distance(5, 0, 5, math.pi))) <= 1e-12

    @staticmethod
    def _identities(seed, size, rim):
        # the body hrg verify runs, on uniform radii up to ``rim``
        rng = np.random.default_rng(seed)
        r = rng.uniform(0.0, rim, (3, size))
        phi = rng.uniform(0.0, TWO_PI, (3, size))
        return distance_identities(r[0], phi[0], r[1], phi[1], r[2], phi[2])

    def test_distance_to_origin_is_radius(self):
        _, radial, _ = self._identities(1, 1000, 30.0)
        assert radial <= 1e-12

    def test_symmetry_exact(self):
        symmetric, _, _ = self._identities(2, 10_000, 25.0)
        assert symmetric

    def test_triangle_inequality(self):
        _, _, triangle = self._identities(3, 100_000, 25.0)
        assert triangle <= 1e-9


class TestEdgeIndicator:
    def test_coincident_points_connect(self):
        assert edge_mask(2.0, 0.5, 2.0, 0.5, 10.0)

    def test_antipodal_boundary_points_do_not(self):
        R = 10.0
        assert float(mp_distance(R, 0, R, math.pi)) > R
        assert not edge_mask(R, 0.0, R, math.pi, R)

    def test_agrees_with_distance_form(self):
        params = ModelParams(10_000, 0.75, 0.0)
        R = params.R
        rng = np.random.default_rng(4)
        size = 1_000_000
        r1 = radial_icdf(rng.random(size), params)
        r2 = radial_icdf(rng.random(size), params)
        phi1 = rng.uniform(0.0, TWO_PI, size)
        phi2 = rng.uniform(0.0, TWO_PI, size)
        via_mask = edge_mask(r1, phi1, r2, phi2, R)
        via_distance = pair_distances(r1, phi1, r2, phi2) <= R
        assert np.array_equal(via_mask, via_distance)

    def test_symmetric_at_the_threshold(self):
        # the band/window builder may pass either endpoint first, so the
        # verdict must not depend on the order even at the threshold angle
        R = ModelParams(10_000, 0.75, 0.0).R
        rng = np.random.default_rng(30)
        r = rng.uniform(R / 2, R, 10_000)
        y = rng.uniform(R / 2, R, 10_000)
        theta = theta_exact(r, y, R)
        # the verdict flips within about two ulps above theta_exact, so
        # each of these angles gives both verdicts over the pairs
        for k in (-1, 0, 1, 2):
            angle = theta + k * np.spacing(theta)
            forward = edge_mask(r, 0.0, y, angle, R)
            assert np.array_equal(forward, edge_mask(y, angle, r, 0.0, R))
            assert 0 < np.count_nonzero(forward) < forward.size


class TestThetaExact:
    def test_central_nodes_connect_at_any_angle(self):
        assert theta_exact(1.0, 1.0, 20.0) == math.pi

    def test_boundary_value_against_oracle(self):
        R = 12.0
        expected = float(mp_theta(R, R, R))
        assert theta_exact(R, R, R) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(6)
        R = 20.0
        r = rng.uniform(0.5, R, 1000)
        y = rng.uniform(0.5, R, 1000)
        assert np.array_equal(theta_exact(r, y, R), theta_exact(y, r, R))

    def test_zero_radius_rejected(self):
        with pytest.raises(ValueError):
            theta_exact(0.0, 5.0, 10.0)
        with pytest.raises(ValueError):
            theta_exact(5.0, 0.0, 10.0)

    def test_threshold_consistency(self):
        # below the threshold angle the pair connects, above it does not
        pairs, consistent = threshold_consistency(np.random.default_rng(7), 100_000)
        assert pairs > 50_000 and consistent


class TestThetaApprox:
    def test_plugin_values(self):
        assert theta_approx(4.0, 6.0, 10.0) == pytest.approx(2.0)
        assert theta_approx(5.0, 5.0 + 2.0 * math.log(2.0), 10.0) == pytest.approx(1.0)

    def test_precondition(self):
        with pytest.raises(ValueError):
            theta_approx(2.0, 3.0, 10.0)

    def test_error_decays_at_the_analytic_rate(self):
        # relative error times exp(r + y - R) stays below a fixed constant
        # over the whole validity range; measured maxima sit near 5/6
        assert 0.0 < mp_theta_decay(ModelParams.from_radius(30.0, 0.75).R) <= 1.0


class TestMuBallOrigin:
    def test_endpoints(self):
        params = ModelParams(100, 0.75, 0.0)
        assert mu_ball_origin_exact(0.0, params) == 0.0
        assert mu_ball_origin_exact(params.R, params) == 1.0

    def test_exponential_approximation_at_large_radius(self):
        assert ball_measure_gap(50.0) <= 0.01


class TestMuLensApprox:
    def test_leading_constant(self):
        params = ModelParams(100, 0.75, 0.0)
        a = params.alpha
        expected = 2.0 * a / (math.pi * (a - 0.5))
        assert mu_lens_approx(0.0, 0.0, params) == pytest.approx(expected)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            mu_lens_approx(1.0, 0.0, ModelParams(100, 0.5, 0.0))

    def test_monotone_decreasing_in_r(self):
        params = ModelParams(1000, 0.75, 0.0)
        values = mu_lens_approx(np.linspace(0.0, params.R, 50), 1.0, params)
        assert bool(np.all(np.diff(values) < 0.0))


class TestMuMonteCarlo:
    def test_whole_disc(self):
        params = ModelParams(100, 0.75, 0.0)
        est = mu_monte_carlo(lambda r, phi: np.ones_like(r, dtype=bool), params, 1000)
        assert est.value == 1.0 and est.std_error == 0.0

    def test_empty_region(self):
        params = ModelParams(100, 0.75, 0.0)
        est = mu_monte_carlo(lambda r, phi: np.zeros_like(r, dtype=bool), params, 1000)
        assert est.value == 0.0

    def test_matches_exact_ball_measure(self):
        params = ModelParams(10_000, 0.75, 0.0)
        half = params.R / 2.0
        est = mu_monte_carlo(lambda r, phi: r <= half, params, 200_000, seed=8)
        exact = mu_ball_origin_exact(half, params)
        assert abs(est.value - exact) <= 3.0 * max(est.std_error, 1e-12)

    def test_lens_agreement_light(self):
        # acceptance runs the full 1e7-sample version; this is a fast guard
        est, approx, tol = lens_measure(9, 1_000_000)
        assert abs(est.value - approx) <= tol

    @staticmethod
    def whole_array_draws(params, samples, seed):
        """The samples of ``mu_monte_carlo`` drawn as whole arrays: the
        angles from the first generator spawned from ``seed``, the radii
        from the second."""
        angular, radial = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
        angles = angular.uniform(0.0, TWO_PI, samples)
        return radial_icdf(radial.random(samples), params), angles

    @pytest.mark.parametrize("block", [1, 7, 64, None])
    def test_samples_do_not_depend_on_the_block(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(geometry, "ARRAY_BLOCK", block)
        params = ModelParams(100, 0.75, 0.0)
        seen = []

        def region(r, phi):
            seen.append((r, phi))
            return (r > params.R / 2.0) & (phi < 2.0)

        est = mu_monte_carlo(region, params, 2500, seed=3)
        radii, angles = self.whole_array_draws(params, 2500, 3)
        assert np.array_equal(np.concatenate([r for r, _ in seen]), radii)
        assert np.array_equal(np.concatenate([phi for _, phi in seen]), angles)
        assert est.hits == int(np.count_nonzero((radii > params.R / 2.0) & (angles < 2.0)))
        assert 0 < est.hits < 2500

    def test_lens_memory_is_bounded_by_the_block(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lens_measure(9, 1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 8 * 2**20
