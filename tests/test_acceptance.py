"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (routed past pytest's capture so the
verdicts always appear in the run log) and covers one of the eleven gate
criteria: formula identities, endpoint values, threshold convergence, cap
geometry, below-threshold decay, above-capacity failure, the per-trial angle
chain, feedback exactness, feedback/cognizant equivalence, the correlation
budget, and byte-level determinism.
"""

import io
import math
import time

import numpy as np
import pytest

from gausshelp.capacity import (
    ChannelParams,
    capacity_cognizant,
    capacity_oblivious_nofeedback,
    mutual_info_xy,
    mutual_info_xz,
    rho_of_helper_rate,
)
from gausshelp.codebook import sample_sphere
from gausshelp.converse import converse_rate_bound, estimator_slack
from gausshelp.feedback import (
    FeedbackConfig,
    encode_time_zero,
    inner_message,
    reconstruct,
    simulate_feedback,
    time_zero_noise,
)
from gausshelp.geometry import achievable_rate_threshold, alpha0, cap_ratio_exact, theta0
from gausshelp.harness import emit_csv, parse_config, run_sweep
from gausshelp.scheme import config_from_rates, simulate

CH = ChannelParams.from_snr(3.0)
RH = 0.5
EPS = 0.1
SEED = 1
THRESHOLD = achievable_rate_threshold(CH, RH, EPS)


def report(capfd, criterion, ok, detail):
    line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def below_threshold_runs():
    """10^4-trial runs at 0.7x the achievable threshold for n in {16, 24, 32}.

    The n=24 cell also keeps per-trial records and correlation diagnostics;
    it is shared by the decay, angle-chain, and budget criteria.
    """
    runs = {}
    for n in (16, 24, 32):
        cfg = config_from_rates(n, 0.7 * THRESHOLD, RH, CH, SEED, eps=EPS, trials=10_000)
        t0 = time.perf_counter()
        runs[n] = (
            simulate(cfg, keep_records=(n == 24), diagnostics=(n == 24)),
            time.perf_counter() - t0,
            cfg,
        )
    return runs


@pytest.fixture(scope="module")
def feedback_run():
    """10^4 feedback blocks at 0.7x cognizant capacity, records kept."""
    inner = config_from_rates(
        12, 0.7 * capacity_cognizant(CH, RH), RH, CH, SEED, eps=EPS, trials=10_000
    )
    cfg = FeedbackConfig(inner=inner)
    return cfg, simulate_feedback(cfg, keep_records=True)


def test_criterion_1_formula_identities(capfd):
    t_start = time.perf_counter()
    worst_xz = max(abs(mutual_info_xz(0.1 * k) - 0.1 * k) for k in range(1, 81))
    worst_xy = 0.0
    for a in np.linspace(0.1, 30.0, 20):
        ch = ChannelParams.from_snr(float(a))
        for rh in np.linspace(0.1, 6.0, 20):
            rh = float(rh)
            gap = abs(mutual_info_xy(ch, rho_of_helper_rate(rh)) - capacity_cognizant(ch, rh))
            worst_xy = max(worst_xy, gap)
    converse_exact = all(
        converse_rate_bound(ChannelParams.from_snr(a), rh)
        == capacity_cognizant(ChannelParams.from_snr(a), rh)
        for a in (0.5, 3.0, 10.0) for rh in (0.0, 0.5, 2.0)
    )
    elapsed = time.perf_counter() - t_start
    ok = worst_xz < 1e-12 and worst_xy < 1e-12 and converse_exact and elapsed < 1.0
    report(capfd, 1, ok, f"identity gaps {worst_xz:.2e}/{worst_xy:.2e}, "
                  f"converse exact: {converse_exact}, {elapsed:.2f}s")


def test_criterion_2_endpoint_values(capfd):
    no_help = capacity_cognizant(CH, 0.0)
    oblivious = capacity_oblivious_nofeedback(CH, 0.5)
    got = capacity_cognizant(CH, 0.5)
    # covariance-determinant oracle for the jointly Gaussian (X, Y) pair
    rho = rho_of_helper_rate(0.5)
    var_y = 3.0 + 1.0 + 2.0 * math.sqrt(3.0) * rho
    cov_xy = 3.0 + math.sqrt(3.0) * rho
    want = 0.5 * math.log2(3.0 * var_y / (3.0 * var_y - cov_xy**2))
    ok = no_help == 1.0 and oblivious == 1.5 and abs(got - want) < 1e-9
    report(capfd, 2, ok, f"endpoints {no_help}/{oblivious}, oracle gap {abs(got - want):.2e}")


def test_criterion_3_threshold_convergence(capfd):
    t_start = time.perf_counter()
    gap = abs(achievable_rate_threshold(CH, 0.5, 1e-6) - capacity_cognizant(CH, 0.5))
    elapsed = time.perf_counter() - t_start
    ok = gap < 1e-4 and elapsed < 1.0
    report(capfd, 3, ok, f"threshold-to-capacity gap {gap:.2e} bits, {elapsed:.2f}s")


def test_criterion_4_cap_geometry(capfd):
    t_start = time.perf_counter()
    closed_form_gap = max(
        abs(cap_ratio_exact(3, float(phi)) - (1.0 - math.cos(float(phi))) / 2.0)
        for phi in np.linspace(0.01, math.pi - 0.01, 100)
    )
    mc_ok = True
    rng = np.random.default_rng(7)
    for n in (4, 8, 16):
        pts = sample_sphere(n, 1_000_000, rng)
        for phi in (0.5, 1.0, 1.3):
            exact = cap_ratio_exact(n, phi)
            frac = float(np.mean(pts[:, 0] >= math.cos(phi)))
            se = math.sqrt(exact * (1.0 - exact) / 1_000_000)
            mc_ok = mc_ok and abs(frac - exact) < 3.0 * se
    elapsed = time.perf_counter() - t_start
    ok = closed_form_gap < 1e-12 and mc_ok and elapsed < 30.0
    report(capfd, 4, ok, f"closed-form gap {closed_form_gap:.2e}, "
                  f"MC within 3 SE: {mc_ok}, {elapsed:.1f}s")


def test_criterion_5_below_threshold_decay(capfd, below_threshold_runs):
    s16, t16, _ = below_threshold_runs[16]
    s24, t24, _ = below_threshold_runs[24]
    s32, t32, _ = below_threshold_runs[32]
    elapsed = t16 + t24 + t32
    separated = s32.ci_high < s16.ci_low
    ok = s32.err_rate < s16.err_rate and separated and s32.err_rate < 0.1 and elapsed < 600.0
    report(capfd, 5, ok, f"err 16/24/32 = {s16.err_rate:.4f}/{s24.err_rate:.4f}/{s32.err_rate:.4f}, "
                  f"CIs separated: {separated}, {elapsed:.1f}s")


def test_criterion_6_above_converse_failure(capfd):
    t_start = time.perf_counter()
    rate = 1.5 * capacity_cognizant(CH, RH)
    cfg = config_from_rates(24, rate, RH, CH, SEED, eps=EPS, trials=1000)
    s = simulate(cfg)
    elapsed = time.perf_counter() - t_start
    ok = s.err_rate > 0.5 and elapsed < 120.0
    report(capfd, 6, ok, f"err rate {s.err_rate:.3f} at 1.5x capacity, {elapsed:.1f}s")


def test_criterion_7_angle_chain(capfd, below_threshold_runs):
    s24, _, cfg = below_threshold_runs[24]
    n = cfg.blocklength
    t0 = theta0(cfg.helper_rate, cfg.eps)
    sin_a0 = math.sin(alpha0(cfg.channel, cfg.eps, t0))
    energy_cap = n * (cfg.channel.noise_var + cfg.eps)
    audited = violations = 0
    for rec in s24.records:
        if rec.noise_energy <= energy_cap and rec.helper_angle <= t0:
            audited += 1
            if math.sin(rec.decode_angle) > sin_a0 + 1e-9:
                violations += 1
    ok = violations == 0 and audited > 0
    report(capfd, 7, ok, f"{violations} angle-chain violations over {audited} audited trials")


def test_criterion_8_feedback_exactness(capfd, feedback_run):
    mb, size, power = 8, 256, CH.power
    failures = 0
    for z0 in np.linspace(-4.0, 4.0, 10_000):
        z0 = float(z0)
        mp = inner_message(z0, mb, power)
        for m in range(size):
            y0 = encode_time_zero(m, mb, power) + z0
            if reconstruct(y0, mp, mb, power) != m:
                failures += 1
    # simulate_feedback relabels the inner cognizant run through the integer
    # receiver (m - m'_hat + m') mod 2^mb, so a block errs exactly when its
    # inner decision does; criterion 9 replays the 10^4 trials against it
    _, summary = feedback_run
    ok = failures == 0 and summary.trials == 10_000 and summary.boundary_events == 0
    report(capfd, 8, ok, f"{failures} reconstruct failures on the 10^4-point grid, "
                  f"{summary.trials} trials with 0 identity exceptions")


def test_criterion_9_feedback_equals_cognizant(capfd, feedback_run):
    cfg, fb = feedback_run
    inner = cfg.inner
    # replay the inner message sequence (the quantized time-zero noise)
    # through the standalone cognizant scheme with the same noise seed
    m_primes = [inner_message(z0, cfg.message_bits, inner.channel.power)
                for z0 in time_zero_noise(cfg)]
    replay = simulate(inner, keep_records=True, messages=m_primes)
    mismatches = sum(
        a.error != b.error for a, b in zip(fb.records, replay.records)
    )
    ok = mismatches == 0 and fb.errors == replay.errors
    report(capfd, 9, ok, f"{mismatches} trial-by-trial error mismatches, "
                  f"outer err rate {fb.err_rate:.4f} == inner {replay.err_rate:.4f}")


def test_criterion_10_correlation_budget(capfd, below_threshold_runs):
    s24, _, cfg = below_threshold_runs[24]
    slack = estimator_slack(s24.corr_profile)
    budget = 24 * (1.0 - 2.0 ** (-2.0 * RH))
    helped_ok = s24.corr_sum <= budget + slack

    control_cfg = config_from_rates(24, 1.0, 0.0, CH, SEED, eps=None, trials=10_000)
    control = simulate(control_cfg, diagnostics=True)
    control_slack = estimator_slack(control.corr_profile)
    control_ok = control.corr_sum <= control_slack

    ok = helped_ok and control_ok
    report(capfd, 10, ok, f"corr sum {s24.corr_sum:.2f} <= budget {budget:.1f} + {slack:.2f}; "
                   f"zero-help control {control.corr_sum:.4f} <= {control_slack:.4f}")


def test_criterion_11_determinism(capfd):
    text = """
    snr = 3
    helper_rate_bits = 0.5
    blocklength = 12, 16
    rate_fraction = 0.6
    trials = 200
    seed = 4
    """
    spec, _ = parse_config(text)

    def csv_bytes(workers):
        sink = io.StringIO()
        emit_csv(run_sweep(spec, workers=workers), sink, zero_walltime=True)
        return sink.getvalue().encode()

    first = csv_bytes(1)
    repeat_ok = csv_bytes(1) == first
    workers_ok = csv_bytes(3) == first
    ok = repeat_ok and workers_ok
    report(capfd, 11, ok, f"repeat identical: {repeat_ok}, worker-count invariant: {workers_ok}")
