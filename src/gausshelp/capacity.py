"""Closed-form rate evaluators for the Gaussian channel with a rate-limited helper.

All rates and mutual informations are in bits per channel use (base-2 logs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DivergenceError(ValueError):
    """The requested quantity is infinite at this input (e.g. |rho| = 1)."""


@dataclass(frozen=True)
class ChannelParams:
    """Physical channel description: input power P and noise variance sigma^2."""

    power: float
    noise_var: float = 1.0

    def __post_init__(self):
        if not self.power > 0:
            raise ValueError(f"power must be positive, got {self.power!r}")
        if not self.noise_var > 0:
            raise ValueError(f"noise_var must be positive, got {self.noise_var!r}")

    @property
    def snr(self) -> float:
        return self.power / self.noise_var

    @classmethod
    def from_snr(cls, snr, noise_var=1.0):
        return cls(power=snr * noise_var, noise_var=noise_var)


def _check_helper_rate(rh):
    if not rh >= 0:  # NaN too
        raise ValueError(f"helper rate must be nonnegative, got {rh!r}")


def rho_of_helper_rate(rh: float) -> float:
    """Input/noise correlation coefficient sqrt(1 - 2^(-2 rh)) induced by help rate rh."""
    _check_helper_rate(rh)
    return math.sqrt(1.0 - 2.0 ** (-2.0 * rh))


def mutual_info_xz(rh: float) -> float:
    """I(X;Z) of the correlated-Gaussian pair at rho(rh), as an entropy difference.

    Equals rh up to round-off; that identity is exercised by the test suite.
    The conditional-variance factor 1 - rho^2 is evaluated as 2^(-2 rh), its
    exact value: squaring the rounded rho would lose ~2^-52 / 2^(-2 rh) in
    relative accuracy, which matters already around rh = 6.
    """
    _check_helper_rate(rh)
    one_minus_rho_sq = 2.0 ** (-2.0 * rh)
    sigma2 = 1.0  # the difference does not depend on the noise variance
    h_z = 0.5 * math.log2(2.0 * math.pi * math.e * sigma2)
    h_z_given_x = 0.5 * math.log2(2.0 * math.pi * math.e * sigma2 * one_minus_rho_sq)
    return h_z - h_z_given_x


def capacity_cognizant(ch: ChannelParams, rh: float) -> float:
    """Capacity with a message-cognizant helper assisting encoder and decoder."""
    _check_helper_rate(rh)
    a = ch.snr
    return 0.5 * math.log2(1.0 + a + 2.0 * math.sqrt(a * (1.0 - 2.0 ** (-2.0 * rh)))) + rh


def capacity_oblivious_nofeedback(ch: ChannelParams, rh: float) -> float:
    """Capacity with a message-oblivious helper and no feedback link."""
    _check_helper_rate(rh)
    return 0.5 * math.log2(1.0 + ch.snr) + rh


def capacity_oblivious_feedback(ch: ChannelParams, rh: float) -> float:
    """Capacity with a message-oblivious helper plus feedback.

    Coincides with the message-cognizant capacity; kept as a named alias so
    all three regimes are addressable.
    """
    return capacity_cognizant(ch, rh)


def mutual_info_xy(ch: ChannelParams, rho: float) -> float:
    """I(X;Y) for Y = X + Z with input/noise correlation rho, in bits.

    Raises DivergenceError at |rho| = 1 instead of returning inf or NaN.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho!r}")
    if abs(rho) == 1.0:
        raise DivergenceError("mutual information diverges at |rho| = 1")
    p, s2 = ch.power, ch.noise_var
    var_y = p + s2 + 2.0 * math.sqrt(p) * math.sqrt(s2) * rho
    # (1 - rho)(1 + rho) instead of 1 - rho*rho: the subtraction is then exact.
    cond_var = s2 * (1.0 - rho) * (1.0 + rho)
    return 0.5 * math.log2(var_y / cond_var)
