"""Converse-side evaluators and empirical audits of simulated schemes.

Only the two auditable endpoints of the converse argument are exposed: the
per-index correlation budget and the final rate bound.  The intermediate
entropy chain involves unobservable conditional entropies and is not executed
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import ChannelParams

# Below this sample variance a column is treated as constant (correlation 0).
_VAR_FLOOR = 1e-15


@dataclass
class CorrelationProfile:
    """Empirical correlation between input and noise at each block index."""

    per_index_rho: np.ndarray
    trials: int


def correlation_budget(n: int, rh: float) -> float:
    """Upper bound n*(1 - 2^(-2 rh)) on the sum of squared per-index correlations."""
    if n < 1:
        raise ValueError(f"blocklength must be at least 1, got {n}")
    if not rh >= 0:  # NaN too
        raise ValueError(f"helper rate must be nonnegative, got {rh!r}")
    return n * (1.0 - 2.0 ** (-2.0 * rh))


class CorrelationSums:
    """Running per-index sums of x, z, x^2, z^2 and x*z: a profile in O(n) memory.

    Rows are shifted by the first row added (Chan, Golub & LeVeque 1979), so
    a large common offset does not cancel catastrophically.
    """

    def __init__(self):
        self.trials, self.sums, self.shift = 0, 0.0, None

    def add(self, xs: np.ndarray, zs: np.ndarray) -> None:
        """Add the (trials, n) inputs xs and noises zs, one row per trial."""
        if self.trials == 0:
            self.shift = xs[:1].copy(), zs[:1].copy()
        xs, zs = xs - self.shift[0], zs - self.shift[1]
        self.sums += np.stack([xs, zs, xs * xs, zs * zs, xs * zs]).sum(axis=1)
        self.trials += len(xs)

    def profile(self) -> CorrelationProfile:
        """Per-index sample correlation coefficients of the trials added."""
        if self.trials < 2:
            raise ValueError(f"need at least 2 trials, got {self.trials}")
        mean_x, mean_z, mean_xx, mean_zz, mean_xz = self.sums / self.trials
        var_x = mean_xx - mean_x * mean_x
        var_z = mean_zz - mean_z * mean_z
        cov = mean_xz - mean_x * mean_z
        rho = np.zeros(len(cov))
        ok = (var_x > _VAR_FLOOR) & (var_z > _VAR_FLOOR)
        rho[ok] = np.clip(cov[ok] / np.sqrt(var_x[ok] * var_z[ok]), -1.0, 1.0)
        return CorrelationProfile(per_index_rho=rho, trials=self.trials)


def empirical_correlations(records) -> CorrelationProfile:
    """Per-index sample correlation coefficients from (x, z) vector pairs."""
    if len(records) < 2:
        raise ValueError(f"need at least 2 records, got {len(records)}")
    return correlation_profile(np.asarray([r[0] for r in records], dtype=float),
                               np.asarray([r[1] for r in records], dtype=float))


def correlation_profile(xs: np.ndarray, zs: np.ndarray) -> CorrelationProfile:
    """Per-index sample correlation coefficients from stacked (trials, n) inputs and noises."""
    if xs.shape != zs.shape:
        raise ValueError(f"inconsistent record shapes {xs.shape} vs {zs.shape}")
    sums = CorrelationSums()
    sums.add(xs, zs)
    return sums.profile()


def converse_rate_bound(ch: ChannelParams, rh: float) -> float:
    """Rate upper bound matching the achievable capacity (the two sides meet)."""
    if not rh >= 0:  # NaN too
        raise ValueError(f"helper rate must be nonnegative, got {rh!r}")
    a = ch.snr
    return 0.5 * math.log2(1.0 + a + 2.0 * math.sqrt(a * (1.0 - 2.0 ** (-2.0 * rh)))) + rh


def estimator_slack(profile: CorrelationProfile) -> float:
    """3-sigma slack for the summed squared-correlation estimator.

    Delta-method variance 4 rho^2 (1 - rho^2)^2 / T per index, plus the n/T
    small-sample bias of squared null correlations.
    """
    rho = profile.per_index_rho
    t = profile.trials
    var = np.sum(4.0 * rho * rho * (1.0 - rho * rho) ** 2) / t
    bias = rho.size / t
    return 3.0 * math.sqrt(var + 2.0 * rho.size / (t * t)) + bias


@dataclass
class BudgetReport:
    corr_sum: float
    budget: float
    slack: float
    within_budget: bool
    mean_abs_rho: float
    entropy_proxy_bits: float
    trials: int


def check_budget(profile: CorrelationProfile, ch: ChannelParams, rh: float,
                 slack: float) -> BudgetReport:
    """Audit a correlation profile against the budget n*(1 - 2^(-2 rh)).

    Also reports the output-entropy proxy 0.5*log2(2 pi e (P + sigma^2 +
    2 sigma sqrt(P) rho_bar)) with rho_bar the mean absolute correlation.
    """
    rho = profile.per_index_rho
    corr_sum = float(np.sum(rho * rho))
    budget = correlation_budget(rho.size, rh)
    rho_bar = float(np.mean(np.abs(rho)))
    p, s2 = ch.power, ch.noise_var
    proxy = 0.5 * math.log2(
        2.0 * math.pi * math.e * (p + s2 + 2.0 * math.sqrt(s2) * math.sqrt(p) * rho_bar)
    )
    return BudgetReport(
        corr_sum=corr_sum,
        budget=budget,
        slack=slack,
        within_budget=corr_sum <= budget + slack,
        mean_abs_rho=rho_bar,
        entropy_proxy_bits=proxy,
        trials=profile.trials,
    )
