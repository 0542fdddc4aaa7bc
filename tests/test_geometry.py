import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gausshelp.capacity import ChannelParams, DivergenceError, capacity_cognizant
from gausshelp.codebook import sample_sphere
from gausshelp.geometry import (
    achievable_rate_threshold,
    alpha0,
    angle_between,
    cap_rate_exponent,
    cap_ratio_exact,
    log_cap_ratio,
    theta0,
)


class TestAngleBetween:
    def test_identical(self):
        assert angle_between([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_orthogonal(self):
        assert angle_between([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_diagonal(self):
        assert angle_between([1.0, 1.0], [1.0, 0.0]) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            angle_between([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            angle_between([1.0, 0.0], [1.0, 0.0, 0.0])

    @given(st.integers(min_value=0, max_value=10**6), st.floats(min_value=0.1, max_value=50.0))
    def test_symmetric_and_scale_invariant(self, seed, scale):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, 5))
        a = angle_between(x, y)
        assert a == angle_between(y, x)
        assert angle_between(scale * x, y) == pytest.approx(a, abs=1e-9)


class TestCapRatio:
    @pytest.mark.parametrize("n", [2, 3, 8, 33])
    def test_hemisphere(self, n):
        assert cap_ratio_exact(n, math.pi / 2) == pytest.approx(0.5, abs=1e-12)

    def test_full_sphere(self):
        assert cap_ratio_exact(7, math.pi) == pytest.approx(1.0, abs=1e-12)

    def test_two_sphere_closed_form(self):
        # for the sphere in R^3 the ratio is (1 - cos phi) / 2
        for phi in np.linspace(0.01, math.pi - 0.01, 100):
            phi = float(phi)
            assert abs(cap_ratio_exact(3, phi) - (1.0 - math.cos(phi)) / 2.0) < 1e-12

    def test_circle_closed_form(self):
        for phi in np.linspace(0.05, math.pi, 20):
            phi = float(phi)
            assert cap_ratio_exact(2, phi) == pytest.approx(phi / math.pi, abs=1e-12)

    def test_complement_symmetry(self):
        for n in (2, 5, 16):
            for phi in np.linspace(0.1, math.pi - 0.1, 25):
                phi = float(phi)
                assert abs(cap_ratio_exact(n, phi) + cap_ratio_exact(n, math.pi - phi) - 1.0) < 1e-12

    def test_monotone_in_phi(self):
        for n in (2, 4, 24):
            vals = [cap_ratio_exact(n, float(p)) for p in np.linspace(0.0, math.pi, 60)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_monte_carlo_oracle(self):
        # uniform-sphere sampling oracle at a desk-scale probe count
        rng = np.random.default_rng(1234)
        n, phi, probes = 8, 1.0, 100_000
        pts = sample_sphere(n, probes, rng)
        frac = float(np.mean(pts[:, 0] >= math.cos(phi)))
        exact = cap_ratio_exact(n, phi)
        se = math.sqrt(exact * (1.0 - exact) / probes)
        assert abs(frac - exact) < 3.0 * se

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            cap_ratio_exact(1, 0.5)


class TestLogCapRatio:
    @pytest.mark.parametrize("n", [2, 3, 16, 200])
    def test_log_of_cap_ratio_exact_where_it_is_normal(self, n):
        phi = np.linspace(0.05, 1.4, 28)
        ratio = cap_ratio_exact(n, phi)
        assert np.all(ratio > 1e-300)
        assert np.allclose(log_cap_ratio(n, phi), np.log(ratio), rtol=1e-12, atol=0.0)

    # Half-angles up to just below where the ratio reaches 2^-1000 at the
    # larger dimensions, the range the analytic decoder uses it on.
    @pytest.mark.parametrize("n, phi_max", [(3, 1.5), (16, 1.5), (100, 1.5), (1024, 0.53),
                                            (2048, 0.79), (20000, 1.30)])
    def test_mpmath_oracle(self, n, phi_max):
        mpmath = pytest.importorskip("mpmath")
        a = mpmath.mpf(n - 1) / 2
        for phi in [1e-300, 1e-20, *np.linspace(1e-3, phi_max, 12).tolist()]:
            with mpmath.workdps(40):
                x = mpmath.sin(mpmath.mpf(phi)) ** 2
                want = mpmath.log(mpmath.betainc(a, 0.5, 0, x, regularized=True) / 2)
            got = log_cap_ratio(n, phi)
            assert abs(got - want) <= 1e-13 * abs(want), (phi, got, want)

    # Near pi/2 at large dim, where hyp2f1 returned nan: the ratio is normal
    # there, so its log is taken directly.
    @pytest.mark.parametrize("n, phi, want", [(1000, 1.55, -1.3643901148308832),
                                              (20000, 1.52, -28.72127684016803)])
    def test_mpmath_oracle_near_a_right_angle(self, n, phi, want):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            x = mpmath.sin(mpmath.mpf(phi)) ** 2
            oracle = mpmath.log(mpmath.betainc(mpmath.mpf(n - 1) / 2, 0.5, 0, x,
                                               regularized=True) / 2)
        assert float(oracle) == pytest.approx(want, rel=1e-15)
        got = log_cap_ratio(n, phi)
        assert abs(got - oracle) <= 1e-13 * abs(oracle), (got, oracle)
        assert np.array_equal(log_cap_ratio(n, np.array([phi, 0.01])),
                              [got, log_cap_ratio(n, 0.01)])

    @pytest.mark.parametrize("dim, phi", [(1, 0.5), (8, 0.0), (8, math.pi / 2), (8, 2.0)])
    def test_domain(self, dim, phi):
        with pytest.raises(ValueError):
            log_cap_ratio(dim, phi)


class TestCapRateExponent:
    def test_values(self):
        assert cap_rate_exponent(math.pi / 2) == 0.0
        assert cap_rate_exponent(math.pi / 6) == pytest.approx(1.0, abs=1e-15)
        assert cap_rate_exponent(math.asin(2.0 ** -0.4)) == pytest.approx(0.4, abs=1e-12)

    def test_divergence_at_zero(self):
        with pytest.raises(DivergenceError):
            cap_rate_exponent(0.0)


class TestTheta0:
    def test_values(self):
        assert theta0(2.0, 1.0) == pytest.approx(math.pi / 6, abs=1e-12)
        assert theta0(0.5, 0.1) == pytest.approx(math.asin(2.0 ** -0.4), abs=1e-12)

    def test_eps_tending_to_zero(self):
        assert theta0(1.0, 1e-12) == pytest.approx(math.pi / 6, abs=1e-9)

    @pytest.mark.parametrize("rh,eps", [(0.5, 0.0), (0.5, 0.5), (0.5, 0.7), (0.5, -0.1)])
    def test_domain(self, rh, eps):
        with pytest.raises(ValueError):
            theta0(rh, eps)


class TestAlpha0:
    def test_arithmetic_chain_oracle(self):
        # sin(alpha0) = sin(theta0) / sqrt(A + 1 + 2 sqrt(A) cos(theta0)) at eps = 0
        ch = ChannelParams.from_snr(3.0)
        t0 = math.asin(math.sqrt(0.5))  # theta0 for rh = 0.5 as eps -> 0
        want = math.sqrt(0.5) / math.sqrt(3.0 + 1.0 + 2.0 * math.sqrt(3.0) * math.cos(t0))
        assert math.sin(alpha0(ch, 0.0, t0)) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.27843, abs=5e-5)

    def test_vanishing_theta0(self):
        ch = ChannelParams.from_snr(3.0)
        assert alpha0(ch, 0.0, 1e-9) == pytest.approx(0.0, abs=1e-8)

    def test_weak_signal_limit(self):
        ch = ChannelParams(power=1e-12, noise_var=1.0)
        t0 = 0.7
        assert alpha0(ch, 0.0, t0) == pytest.approx(t0, abs=1e-5)

    @pytest.mark.parametrize("eps, t0, message", [
        (-0.1, 0.7, "eps must be nonnegative"),
        (0.0, 0.0, "theta0 must lie in"),
        (0.0, 1.6, "theta0 must lie in"),
    ])
    def test_domain(self, eps, t0, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            alpha0(ChannelParams.from_snr(3.0), eps, t0)


class TestAchievableRateThreshold:
    def test_converges_to_capacity(self):
        ch = ChannelParams.from_snr(3.0)
        cap = capacity_cognizant(ch, 0.5)
        vals = [achievable_rate_threshold(ch, 0.5, eps) for eps in (0.2, 0.05, 1e-3, 1e-6, 1e-9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(cap, abs=1e-6)

    def test_below_capacity_at_positive_eps(self):
        ch = ChannelParams.from_snr(3.0)
        assert achievable_rate_threshold(ch, 0.5, 0.1) < capacity_cognizant(ch, 0.5)

    def test_matches_cap_exponent_of_alpha0(self):
        for a in (0.5, 3.0, 12.0):
            ch = ChannelParams.from_snr(a)
            for rh, eps in ((0.5, 0.1), (1.0, 0.25), (2.0, 0.03)):
                t0 = theta0(rh, eps)
                want = cap_rate_exponent(alpha0(ch, eps, t0))
                assert abs(achievable_rate_threshold(ch, rh, eps) - want) < 1e-12

    def test_domain(self):
        ch = ChannelParams.from_snr(3.0)
        with pytest.raises(ValueError):
            achievable_rate_threshold(ch, 0.5, 0.6)
