import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gausshelp.capacity import (
    ChannelParams,
    DivergenceError,
    capacity_cognizant,
    capacity_oblivious_feedback,
    capacity_oblivious_nofeedback,
    mutual_info_xy,
    mutual_info_xz,
    rho_of_helper_rate,
)


def bivariate_gaussian_mi_bits(p, s2, rho):
    """Oracle: I(X;Y) from the covariance determinant of the jointly Gaussian pair."""
    var_y = p + s2 + 2.0 * math.sqrt(p * s2) * rho
    cov_xy = p + math.sqrt(p * s2) * rho
    det = p * var_y - cov_xy * cov_xy
    return 0.5 * math.log2(p * var_y / det)


class TestChannelParams:
    def test_snr_is_power_over_noise(self):
        ch = ChannelParams(power=6.0, noise_var=2.0)
        assert ch.snr == 3.0

    def test_from_snr(self):
        assert ChannelParams.from_snr(3.0).power == 3.0

    @pytest.mark.parametrize("p,s2", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_nonpositive(self, p, s2):
        with pytest.raises(ValueError):
            ChannelParams(power=p, noise_var=s2)


class TestRho:
    def test_zero_rate(self):
        assert rho_of_helper_rate(0.0) == 0.0

    def test_half_bit(self):
        assert rho_of_helper_rate(0.5) == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_two_bits_rational_oracle(self):
        # 1 - 2^-4 = 15/16, so rho = sqrt(15)/4
        assert rho_of_helper_rate(2.0) == pytest.approx(math.sqrt(15.0) / 4.0, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rho_of_helper_rate(-0.1)

    def test_nan_rejected(self):
        ch = ChannelParams.from_snr(3.0)
        for capacity in (capacity_cognizant, capacity_oblivious_nofeedback,
                         capacity_oblivious_feedback):
            with pytest.raises(ValueError, match="nonnegative"):
                capacity(ch, math.nan)

    @given(st.floats(min_value=0.0, max_value=16.0))
    def test_monotone_and_bounded(self, rh):
        r = rho_of_helper_rate(rh)
        assert 0.0 <= r < 1.0
        assert rho_of_helper_rate(rh + 0.25) >= r


class TestMutualInfoXZ:
    def test_zero(self):
        assert mutual_info_xz(0.0) == 0.0

    @pytest.mark.parametrize("rh", [0.5, 3.25])
    def test_equals_helper_rate(self, rh):
        assert mutual_info_xz(rh) == pytest.approx(rh, abs=1e-12)

    def test_identity_on_grid(self):
        for k in range(1, 81):
            rh = 0.1 * k
            assert abs(mutual_info_xz(rh) - rh) < 1e-12


class TestCapacities:
    def test_cognizant_no_help(self):
        assert capacity_cognizant(ChannelParams.from_snr(3.0), 0.0) == 1.0

    def test_cognizant_matches_covariance_oracle(self):
        got = capacity_cognizant(ChannelParams.from_snr(3.0), 0.5)
        want = bivariate_gaussian_mi_bits(3.0, 1.0, math.sqrt(0.5))
        assert got == pytest.approx(want, abs=1e-9)

    def test_cognizant_large_rh_limit(self):
        # C -> log2(1 + sqrt(A)) + rh as the square root saturates
        got = capacity_cognizant(ChannelParams.from_snr(1.0), 20.0)
        assert got == pytest.approx(math.log2(1.0 + 1.0) + 20.0, abs=1e-6)

    def test_oblivious_values(self):
        ch = ChannelParams.from_snr(3.0)
        assert capacity_oblivious_nofeedback(ch, 0.0) == 1.0
        assert capacity_oblivious_nofeedback(ch, 0.5) == 1.5
        assert capacity_oblivious_nofeedback(ChannelParams.from_snr(15.0), 1.0) == 3.0

    def test_feedback_alias_is_bit_exact(self):
        for a in (0.2, 1.0, 3.0, 17.5):
            ch = ChannelParams.from_snr(a)
            for rh in (0.0, 0.3, 1.7, 6.0):
                assert capacity_oblivious_feedback(ch, rh) == capacity_cognizant(ch, rh)

    def test_ordering(self):
        for a in np.linspace(0.2, 20.0, 12):
            ch = ChannelParams.from_snr(float(a))
            assert capacity_cognizant(ch, 0.0) == capacity_oblivious_nofeedback(ch, 0.0)
            for rh in np.linspace(0.1, 6.0, 12):
                assert capacity_cognizant(ch, float(rh)) > capacity_oblivious_nofeedback(ch, float(rh))

    def test_strictly_increasing_in_snr_and_rh(self):
        a_grid = np.linspace(0.2, 20.0, 15)
        rh_grid = np.linspace(0.0, 6.0, 15)
        vals = np.array([[capacity_cognizant(ChannelParams.from_snr(float(a)), float(rh))
                          for rh in rh_grid] for a in a_grid])
        assert np.all(np.diff(vals, axis=0) > 0)
        assert np.all(np.diff(vals, axis=1) > 0)


class TestMutualInfoXY:
    def test_uncorrelated(self):
        assert mutual_info_xy(ChannelParams.from_snr(3.0), 0.0) == 1.0

    def test_matches_covariance_oracle(self):
        rho = math.sqrt(0.5)
        got = mutual_info_xy(ChannelParams(power=3.0, noise_var=1.0), rho)
        assert got == pytest.approx(bivariate_gaussian_mi_bits(3.0, 1.0, rho), abs=1e-12)

    def test_divergence_at_unit_rho(self):
        ch = ChannelParams(power=1.0, noise_var=1.0)
        with pytest.raises(DivergenceError):
            mutual_info_xy(ch, 1.0)
        with pytest.raises(DivergenceError):
            mutual_info_xy(ch, -1.0)

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            mutual_info_xy(ChannelParams.from_snr(1.0), 1.5)

    def test_consistency_with_capacity(self):
        # rho near 1 loses precision in 1 - rho^2, so keep rh moderate
        for a in np.linspace(0.1, 30.0, 20):
            ch = ChannelParams.from_snr(float(a))
            for rh in np.linspace(0.1, 6.0, 20):
                rh = float(rh)
                got = mutual_info_xy(ch, rho_of_helper_rate(rh))
                assert abs(got - capacity_cognizant(ch, rh)) < 1e-12
