"""Output checks computed apart from the program under test.

Every reference value here is derived from first principles (closed forms,
the exact conditional error law, chi-squared and Wilson statistics) with numpy
and scipy only; nothing compares against a stored copy of earlier output.
Each check raises CheckError with a one-line reason when it fails.  Every
workload uses noise variance 1, so the SNR equals the power P.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

Z95 = 1.959963984540054

# Error counts must lie within this many standard deviations of their
# expectation, plus one count for discreteness.
ERROR_LAW_SIGMAS = 5.0
# Two-sided tail probability outside the chi-squared noise-energy bounds.
CHI2_TAIL = 1e-9
# criterion5's longest blocklength must decode with an error rate below this.
DECAY_MAX_ERR = 0.1
# Closed forms are evaluated along a different route than the program's, so
# they agree to round-off, not bit for bit.
CLOSED_FORM_RTOL = 1e-9
# CSV values carry 9 significant digits.
CSV_RTOL = 1e-8

CSV_HEADER = (
    "scheme,n,rate_bits,helper_rate_bits,snr,eps,trials,errors,covering_misses,"
    "err_rate,err_rate_given_covered,ci_low,ci_high,mean_helper_angle,"
    "mean_decode_angle,corr_sum,corr_budget,capacity_bits,threshold_bits,"
    "seed,wall_time_s"
)


class CheckError(AssertionError):
    """A program output disagrees with its independently computed reference."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _close(got, want, rtol):
    return abs(got - want) <= rtol * max(1.0, abs(want))


def capacity_bits(snr, rh):
    """Cognizant capacity as I(X;Y) of the jointly Gaussian (X, Y) pair.

    X ~ N(0, P) has correlation rho = sqrt(1 - 2^(-2 rh)) with the unit-variance
    noise; I(X;Y) follows from the covariance determinant of (X, Y).
    """
    p = snr
    rho = math.sqrt(1.0 - 4.0 ** (-rh))
    cov_xy = p + math.sqrt(p) * rho
    var_y = p + 1.0 + 2.0 * math.sqrt(p) * rho
    return 0.5 * math.log2(p * var_y / (p * var_y - cov_xy * cov_xy))


def theta0(rh, eps):
    return math.asin(2.0 ** (eps - rh))


def sin_alpha0(snr, rh, eps):
    """Sine of the worst decode angle when the helper aligns within theta0."""
    t0 = theta0(rh, eps)
    r = snr / (1.0 + eps)
    return math.sin(t0) / math.sqrt(r + 1.0 + 2.0 * math.sqrt(r) * math.cos(t0))


def threshold_bits(snr, rh, eps):
    return -math.log2(sin_alpha0(snr, rh, eps))


def wilson(k, n):
    z = Z95
    p = k / n
    denom = 1.0 + z * z / n
    center = p + z * z / (2.0 * n)
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return (center - half) / denom, (center + half) / denom


def cap_ratio(n, angles):
    """Normalized area of caps of half-angle `angles` on the sphere in R^n."""
    angles = np.asarray(angles, dtype=float)
    half = 0.5 * special.betainc((n - 1) / 2.0, 0.5, np.sin(angles) ** 2)
    return np.where(angles <= math.pi / 2, half, 1.0 - half)


def check_closed_forms(label, capacity, threshold, snr, rh, eps, rtol=CLOSED_FORM_RTOL):
    want_c = capacity_bits(snr, rh)
    _require(_close(capacity, want_c, rtol),
             f"{label}: capacity_bits {capacity!r} != closed form {want_c!r}")
    want_t = threshold_bits(snr, rh, eps)
    _require(_close(threshold, want_t, rtol),
             f"{label}: threshold_bits {threshold!r} != closed form {want_t!r}")


def check_wilson(label, errors, trials, ci_low, ci_high, rtol=CLOSED_FORM_RTOL):
    lo, hi = wilson(errors, trials)
    _require(_close(ci_low, lo, rtol) and _close(ci_high, hi, rtol),
             f"{label}: Wilson interval ({ci_low!r}, {ci_high!r}) != ({lo!r}, {hi!r})")
    # The program's lower bound at zero errors is a round-off residue (about
    # 1e-18) above 0, so the ordering allows the same slack as the values.
    slack = rtol * max(1.0, errors / trials)
    _require(ci_low - slack <= errors / trials <= ci_high + slack,
             f"{label}: error rate {errors / trials!r} outside ({ci_low!r}, {ci_high!r})")


def check_summary(label, s, cfg):
    """One SimSummary against the config it ran: echoed inputs, accounting,
    closed forms and the Wilson interval."""
    want = (cfg.blocklength, cfg.trials, cfg.channel.snr, cfg.helper_rate, cfg.eps)
    got = (s.blocklength, s.trials, s.snr, s.helper_rate_bits, s.eps)
    _require(got == want, f"{label}: summary echoes (n, trials, snr, rh, eps) = {got}, ran {want}")
    _require(0 <= s.errors <= s.trials, f"{label}: errors {s.errors} outside [0, {s.trials}]")
    _require(s.err_rate == s.errors / s.trials,
             f"{label}: err_rate {s.err_rate!r} != {s.errors}/{s.trials}")
    check_closed_forms(label, s.capacity_bits, s.threshold_bits, *want[2:])
    check_wilson(label, s.errors, s.trials, s.ci_low, s.ci_high)


def check_error_law(label, s, n, message_bits):
    """Error count against sum_i [1 - (1 - c_n(alpha_i))^(M-1)] from the records.

    Given trial i's decode angle alpha_i, each of the M - 1 competing
    codewords is uniform on the sphere and independent of the received word,
    so it beats the true codeword with probability c_n(alpha_i); that law is
    exact for both decode routes.
    """
    records = s.records
    _require(records is not None and len(records) == s.trials,
             f"{label}: expected {s.trials} records")
    _require(sum(bool(r.error) for r in records) == s.errors,
             f"{label}: records hold a different error count than the summary")
    c = cap_ratio(n, [r.decode_angle for r in records])
    with np.errstate(divide="ignore"):
        p = -np.expm1(((1 << message_bits) - 1) * np.log1p(-c))
    mean = float(p.sum())
    sd = math.sqrt(float((p * (1.0 - p)).sum()))
    tol = ERROR_LAW_SIGMAS * sd + 1.0
    _require(abs(s.errors - mean) <= tol,
             f"{label}: {s.errors} errors, exact law expects {mean:.2f} +- {tol:.2f}")


def check_noise_energy(label, s, dof_per_trial):
    """Total noise energy against its chi-squared law with trials * dof degrees."""
    total = sum(r.noise_energy for r in s.records)
    dof = s.trials * dof_per_trial
    lo = stats.chi2.ppf(CHI2_TAIL / 2, dof)
    hi = stats.chi2.isf(CHI2_TAIL / 2, dof)
    _require(lo <= total <= hi,
             f"{label}: mean noise energy {total / s.trials:.4f} outside chi-squared bounds "
             f"[{lo / s.trials:.4f}, {hi / s.trials:.4f}] around {dof_per_trial}")


def check_decay(short, long):
    """Error rate falls with blocklength: separated Wilson intervals, low error at the end."""
    lo_short, _ = wilson(short.errors, short.trials)
    _, hi_long = wilson(long.errors, long.trials)
    _require(long.err_rate < short.err_rate and hi_long < lo_short,
             f"no decay: n={short.blocklength} err {short.err_rate:.5f} (CI low {lo_short:.5f}) vs "
             f"n={long.blocklength} err {long.err_rate:.5f} (CI high {hi_long:.5f})")
    _require(long.err_rate < DECAY_MAX_ERR,
             f"n={long.blocklength} error rate {long.err_rate:.4f} not below {DECAY_MAX_ERR}")


def check_angle_chain(label, s, n, snr, rh, eps):
    """Trials with typical noise and a covered helper decode within alpha0."""
    t0 = theta0(rh, eps)
    bound = sin_alpha0(snr, rh, eps) + 1e-9
    energy_cap = n * (1.0 + eps)
    audited = [r for r in s.records if r.noise_energy <= energy_cap and r.helper_angle <= t0]
    violations = sum(math.sin(r.decode_angle) > bound for r in audited)
    _require(audited and violations == 0,
             f"{label}: {violations} angle-chain violations over {len(audited)} audited trials")


def check_correlation_budget(label, s, n, rh):
    """Sum of squared per-index correlations within n(1 - 2^(-2 rh)) plus 3-sigma slack."""
    rho = np.asarray(s.corr_profile.per_index_rho, dtype=float)
    t = s.corr_profile.trials
    corr_sum = float(np.sum(rho * rho))
    _require(_close(s.corr_sum, corr_sum, CLOSED_FORM_RTOL),
             f"{label}: corr_sum {s.corr_sum!r} != sum of squared profile {corr_sum!r}")
    var = float(np.sum(4.0 * rho * rho * (1.0 - rho * rho) ** 2)) / t
    slack = 3.0 * math.sqrt(var + 2.0 * n / (t * t)) + n / t
    budget = n * (1.0 - 4.0 ** (-rh))
    _require(corr_sum <= budget + slack,
             f"{label}: corr_sum {corr_sum:.3f} exceeds budget {budget:.3f} + {slack:.3f}")


def check_sweep_csv(text, cells, trials):
    """The sweep CSV: fixed header, one row per grid cell in order, consistent values.

    `cells` lists (snr, rh, n, rate_fraction) in sweep order.
    """
    _require(text.endswith("\n") and "\r" not in text, "CSV must use LF line endings")
    lines = text[:-1].split("\n")
    _require(lines[0] == CSV_HEADER, f"CSV header changed: {lines[0]!r}")
    rows = [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in lines[1:]]
    _require(len(rows) == len(cells), f"CSV has {len(rows)} rows for {len(cells)} grid cells")
    for row, (snr, rh, n, frac) in zip(rows, cells):
        label = f"cell snr={snr} rh={rh} n={n} f={frac}"
        v = {k: float(x) for k, x in row.items() if k != "scheme"}
        _require(row["scheme"] == "feedback", f"{label}: scheme {row['scheme']!r}")
        _require((v["snr"], v["helper_rate_bits"], v["n"]) == (snr, rh, n),
                 f"{label}: row is for snr={v['snr']} rh={v['helper_rate_bits']} n={v['n']}")
        _require(v["trials"] == trials, f"{label}: {v['trials']} trials, expected {trials}")
        _require(v["wall_time_s"] == 0.0, f"{label}: wall_time_s not zeroed under --repro")
        cap = capacity_bits(snr, rh)
        want_rate = math.ceil(n * frac * cap) / n
        _require(_close(v["rate_bits"], want_rate, CSV_RTOL),
                 f"{label}: rate_bits {v['rate_bits']!r} != ceil(n f C)/n = {want_rate!r}")
        errors = int(row["errors"])
        _require(0 <= errors <= trials, f"{label}: errors {errors} outside [0, {trials}]")
        _require(_close(v["err_rate"], errors / trials, CSV_RTOL),
                 f"{label}: err_rate {v['err_rate']!r} != {errors}/{trials}")
        check_wilson(label, errors, trials, v["ci_low"], v["ci_high"], rtol=CSV_RTOL)
        check_closed_forms(label, v["capacity_bits"], v["threshold_bits"], snr, rh,
                           v["eps"], rtol=CSV_RTOL)
