import math

import numpy as np
import pytest

from gausshelp.capacity import ChannelParams, capacity_cognizant
from gausshelp.converse import (
    CorrelationProfile,
    CorrelationSums,
    check_budget,
    converse_rate_bound,
    correlation_budget,
    correlation_profile,
    empirical_correlations,
    estimator_slack,
)


class TestCorrelationBudget:
    def test_zero_helper_rate(self):
        assert correlation_budget(10, 0.0) == 0.0

    def test_half_bit(self):
        assert correlation_budget(4, 0.5) == pytest.approx(2.0, abs=1e-15)

    def test_saturates_at_blocklength(self):
        assert correlation_budget(7, 100.0) == pytest.approx(7.0, abs=1e-12)
        for rh in np.linspace(0.0, 10.0, 30):
            assert correlation_budget(7, float(rh)) <= 7.0

    def test_domain(self):
        with pytest.raises(ValueError):
            correlation_budget(0, 0.5)
        with pytest.raises(ValueError):
            correlation_budget(4, -0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            correlation_budget(4, math.nan)


class TestEmpiricalCorrelations:
    def _records(self, rng, trials, n, coupling):
        out = []
        for _ in range(trials):
            z = rng.standard_normal(n)
            x = coupling * z + math.sqrt(1.0 - coupling**2) * rng.standard_normal(n)
            out.append((x, z))
        return out

    def test_perfectly_aligned(self):
        rng = np.random.default_rng(1)
        records = [(z, z) for z in rng.standard_normal((50, 4))]
        prof = empirical_correlations(records)
        assert np.allclose(prof.per_index_rho, 1.0, atol=1e-12)

    def test_perfectly_opposed(self):
        rng = np.random.default_rng(2)
        records = [(-z, z) for z in rng.standard_normal((50, 4))]
        prof = empirical_correlations(records)
        assert np.allclose(prof.per_index_rho, -1.0, atol=1e-12)

    def test_independent_pairs_stay_small(self):
        rng = np.random.default_rng(3)
        trials = 4000
        prof = empirical_correlations(self._records(rng, trials, 5, 0.0))
        assert np.max(np.abs(prof.per_index_rho)) < 3.0 / math.sqrt(trials)

    def test_known_coupling(self):
        rng = np.random.default_rng(4)
        trials, coupling = 20000, 0.6
        prof = empirical_correlations(self._records(rng, trials, 3, coupling))
        # SE of a sample correlation is about (1 - rho^2)/sqrt(T)
        se = (1.0 - coupling**2) / math.sqrt(trials)
        assert np.max(np.abs(prof.per_index_rho - coupling)) < 4.0 * se

    def test_constant_column_treated_as_uncorrelated(self):
        rng = np.random.default_rng(5)
        records = [(np.array([1.0, z[1]]), z) for z in rng.standard_normal((30, 2))]
        prof = empirical_correlations(records)
        assert prof.per_index_rho[0] == 0.0
        assert prof.per_index_rho[1] == pytest.approx(1.0, abs=1e-12)

    def test_array_form_equals_the_pair_form(self):
        rng = np.random.default_rng(6)
        records = self._records(rng, 300, 4, 0.3)
        xs, zs = (np.stack([r[i] for r in records]) for i in (0, 1))
        prof = correlation_profile(xs, zs)
        assert np.array_equal(prof.per_index_rho, empirical_correlations(records).per_index_rho)
        assert prof.trials == 300
        with pytest.raises(ValueError):
            correlation_profile(xs[:1], zs[:1])
        with pytest.raises(ValueError):
            correlation_profile(xs, zs[:, :3])

    def test_large_common_offset(self):
        # At an offset of 1e8 the unshifted one-pass sums lose every digit of
        # the variance; whole and in engine-sized blocks, the profile must
        # match the two-pass formula
        rng = np.random.default_rng(7)
        zs = rng.standard_normal((2000, 4))
        xs = 1e8 + 0.5 * zs + rng.standard_normal((2000, 4))
        xc, zc = xs - xs.mean(axis=0), zs - zs.mean(axis=0)
        want = (xc * zc).sum(axis=0) / np.sqrt((xc * xc).sum(axis=0) * (zc * zc).sum(axis=0))
        sums = CorrelationSums()
        for lo in range(0, len(xs), 128):
            sums.add(xs[lo:lo + 128], zs[lo:lo + 128])
        for prof in (correlation_profile(xs, zs), sums.profile()):
            assert prof.trials == 2000
            assert np.allclose(prof.per_index_rho, want, rtol=0, atol=1e-12)

    def test_needs_two_records(self):
        with pytest.raises(ValueError):
            empirical_correlations([(np.zeros(2), np.zeros(2))])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            empirical_correlations([(np.zeros(2), np.zeros(3)), (np.zeros(2), np.zeros(3))])


class TestConverseRateBound:
    def test_meets_achievability_exactly(self):
        for a in (0.2, 1.0, 3.0, 12.0):
            ch = ChannelParams.from_snr(a)
            for rh in (0.0, 0.5, 1.0, 4.0):
                assert converse_rate_bound(ch, rh) == capacity_cognizant(ch, rh)

    def test_domain(self):
        with pytest.raises(ValueError):
            converse_rate_bound(ChannelParams.from_snr(1.0), -0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            converse_rate_bound(ChannelParams.from_snr(1.0), math.nan)


class TestEstimatorSlack:
    def test_null_profile_slack_is_bias_dominated(self):
        prof = CorrelationProfile(per_index_rho=np.zeros(8), trials=1000)
        slack = estimator_slack(prof)
        assert slack >= 8 / 1000  # at least the small-sample bias
        assert slack < 0.03

    def test_shrinks_with_trials(self):
        rho = np.full(8, 0.4)
        small = estimator_slack(CorrelationProfile(per_index_rho=rho, trials=100))
        large = estimator_slack(CorrelationProfile(per_index_rho=rho, trials=10000))
        assert large < small


class TestCheckBudget:
    CH = ChannelParams.from_snr(3.0)

    def test_synthetic_violation(self):
        # four perfectly correlated indices against a half-bit budget of 2
        prof = CorrelationProfile(per_index_rho=np.ones(4), trials=500)
        report = check_budget(prof, self.CH, 0.5, slack=estimator_slack(prof))
        assert report.corr_sum == pytest.approx(4.0, abs=1e-12)
        assert report.budget == pytest.approx(2.0, abs=1e-12)
        assert not report.within_budget

    def test_null_profile_within_budget(self):
        prof = CorrelationProfile(per_index_rho=np.zeros(4), trials=500)
        report = check_budget(prof, self.CH, 0.5, slack=estimator_slack(prof))
        assert report.within_budget
        assert report.corr_sum == 0.0
        # with rho_bar = 0 the proxy is the plain Gaussian output entropy
        want = 0.5 * math.log2(2.0 * math.pi * math.e * 4.0)
        assert report.entropy_proxy_bits == pytest.approx(want, abs=1e-12)

    def test_entropy_proxy_grows_with_alignment(self):
        lo = check_budget(CorrelationProfile(np.full(4, 0.1), 500), self.CH, 0.5, 0.0)
        hi = check_budget(CorrelationProfile(np.full(4, 0.6), 500), self.CH, 0.5, 0.0)
        assert hi.entropy_proxy_bits > lo.entropy_proxy_bits
