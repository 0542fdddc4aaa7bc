"""Sphere and spherical-cap geometry: angles, cap-area ratios, alignment angles.

Angles are plain floats in radians, in [0, pi].
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import special

from .capacity import ChannelParams, DivergenceError, _check_helper_rate

# Dot products of normalized high-dimensional vectors routinely exceed [-1, 1]
# by round-off; beyond this slack the clamp is treated as a health warning.
COS_CLAMP_TOL = 1e-9


def angle_between(x, y) -> float:
    """Angle in [0, pi] between two nonzero vectors of the same dimension."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"expected two vectors of equal dimension, got shapes {x.shape} and {y.shape}")
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("the zero vector has no direction")
    # math.fsum rounds the exact sum of the products once, in no summation
    # order a BLAS kernel picks, so angle_between(x, y) == angle_between(y, x).
    c = math.fsum(x * y) / (nx * ny)
    if abs(c) > 1.0 + COS_CLAMP_TOL:
        warnings.warn(f"cosine {c!r} clamped to [-1, 1]; exceeds round-off slack", RuntimeWarning)
    return math.acos(min(1.0, max(-1.0, c)))


def cap_ratio_exact(dim: int, phi):
    """Normalized surface area of a cap of half-angle phi on the sphere in R^dim.

    Regularized incomplete beta formulation: for phi <= pi/2 the ratio is
    I_{sin^2 phi}((dim-1)/2, 1/2) / 2; the obtuse case follows by complement
    symmetry.  Exact up to the beta-function evaluation, monotone in phi,
    and equal to 1 at phi = pi.  phi may be an array of half-angles; a scalar
    phi gives a float.
    """
    if dim < 2:
        raise ValueError(f"ambient dimension must be at least 2, got {dim}")
    phi = np.asarray(phi, dtype=float)
    inside = (phi >= 0.0) & (phi <= math.pi)
    if not inside.all():
        bad = float(phi[~inside][0])
        raise ValueError(f"cap half-angle must lie in [0, pi], got {bad!r}")
    obtuse = phi > math.pi / 2
    s = np.sin(np.where(obtuse, math.pi - phi, phi))
    half = 0.5 * special.betainc((dim - 1) / 2.0, 0.5, s * s)
    ratio = np.where(obtuse, 1.0 - half, half)
    return float(ratio) if ratio.ndim == 0 else ratio


def log_cap_ratio(dim: int, phi):
    """Natural log of cap_ratio_exact(dim, phi) for 0 < phi < pi/2, past its underflow.

    The log of cap_ratio_exact where that is at least 2^-1000.  Below, where
    betainc underflows, with a = (dim-1)/2 and x = sin^2 phi, I_x(a, 1/2) =
    x^a (1-x)^(1/2) 2F1(a+1/2, 1; a+1; x) / (a B(a, 1/2)) (DLMF 8.17.8), so
    the log is a sum of logs, finite however small the ratio and within about
    1e-14 relative.  phi may be an array.
    """
    if dim < 2:
        raise ValueError(f"ambient dimension must be at least 2, got {dim}")
    phi = np.asarray(phi, dtype=float)
    inside = (phi > 0.0) & (phi < math.pi / 2)
    if not inside.all():
        bad = float(phi[~inside][0])
        raise ValueError(f"cap half-angle must lie in (0, pi/2), got {bad!r}")
    ratio = np.atleast_1d(cap_ratio_exact(dim, phi))
    tiny = ratio < 2.0 ** -1000
    log_ratio = np.log(np.where(tiny, 1.0, ratio))
    a, small = (dim - 1) / 2.0, np.atleast_1d(phi)[tiny]
    s = np.sin(small)  # x = s^2; 2a ln s, since x itself may underflow
    log_ratio[tiny] = (2.0 * a * np.log(s) + np.log(np.cos(small)) - math.log(a)
                       - special.betaln(a, 0.5)
                       + np.log(special.hyp2f1(a + 0.5, 1.0, a + 1.0, s * s)) - math.log(2.0))
    return float(log_ratio[0]) if phi.ndim == 0 else log_ratio


def cap_rate_exponent(phi: float) -> float:
    """Per-dimension exponent -log2 sin(phi) of the cap-area ratio, in bits."""
    if not 0.0 <= phi <= math.pi / 2:
        raise ValueError(f"expected phi in [0, pi/2], got {phi!r}")
    if phi == 0.0:
        raise DivergenceError("cap rate exponent diverges at phi = 0")
    return -math.log2(math.sin(phi))


def theta0(rh: float, eps: float) -> float:
    """Helper alignment half-angle: the theta with sin(theta) = 2^-(rh - eps)."""
    if not 0.0 < eps < rh:
        raise ValueError(f"requires 0 < eps < rh, got eps={eps!r}, rh={rh!r}")
    return math.asin(2.0 ** (-(rh - eps)))


def alpha0(ch: ChannelParams, eps: float, theta0_rad: float) -> float:
    """Worst-case input/output angle induced by helper alignment within theta0.

    arcsin( sin(theta0) / sqrt(r + 1 + 2 sqrt(r) cos(theta0)) ) with
    r = P / (sigma^2 + eps); lies in [0, pi/2].
    """
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps!r}")
    if not 0.0 < theta0_rad <= math.pi / 2:
        raise ValueError(f"theta0 must lie in (0, pi/2], got {theta0_rad!r}")
    r = ch.power / (ch.noise_var + eps)
    sin_a = math.sin(theta0_rad) / math.sqrt(r + 1.0 + 2.0 * math.sqrt(r) * math.cos(theta0_rad))
    return math.asin(sin_a)


def achievable_rate_threshold(ch: ChannelParams, rh: float, eps: float) -> float:
    """Largest rate (bits/use) at which the geometric scheme's error bound decays.

    Equals -log2 sin(alpha0) for theta0(rh, eps); increases as eps shrinks and
    converges to capacity_cognizant(ch, rh) in the eps -> 0 limit.
    """
    _check_helper_rate(rh)
    if not 0.0 < eps < rh:
        raise ValueError(f"requires 0 < eps < rh, got eps={eps!r}, rh={rh!r}")
    r = ch.power / (ch.noise_var + eps)
    sin_t = 2.0 ** (-(rh - eps))
    cos_t = math.sqrt((1.0 - sin_t) * (1.0 + sin_t))
    return 0.5 * math.log2(r + 1.0 + 2.0 * math.sqrt(r) * cos_t) + (rh - eps)
