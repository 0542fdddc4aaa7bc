import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gausshelp import scheme
from gausshelp.capacity import ChannelParams, capacity_cognizant
from gausshelp.codebook import (CodebookSizeError, HelperCodebook, build_base_codebook,
                                derive_seed, haar_rotation)
from gausshelp.geometry import cap_ratio_exact
from gausshelp.scheme import (
    CHUNK_TRIALS,
    WORKERS_ENV,
    SchemeConfig,
    _analytic_error_probability,
    build_codebook,
    config_from_rates,
    decode,
    draw_messages,
    helper_select,
    plan,
    run_trial,
    simulate,
    transmit,
)

CH = ChannelParams.from_snr(3.0)


def small_config(n=12, rate=0.9, rh=0.5, eps=0.1, seed=3, trials=200):
    return config_from_rates(n, rate, rh, CH, seed, eps=eps, trials=trials)


def trial_noise(cfg, seed):
    """One trial's noise in the message's frame, from a generator of its own."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(cfg.blocklength) * math.sqrt(cfg.channel.noise_var)


class TestConfig:
    def test_eps_must_sit_below_helper_rate(self):
        with pytest.raises(ValueError):
            SchemeConfig(blocklength=8, message_bits=4, helper_bits=4, eps=0.6,
                         channel=CH, codebook_seed=1, noise_seed=2, message_seed=3)

    def test_zero_helper_needs_zero_eps(self):
        with pytest.raises(ValueError):
            SchemeConfig(blocklength=8, message_bits=4, helper_bits=0, eps=0.1,
                         channel=CH, codebook_seed=1, noise_seed=2, message_seed=3)

    @pytest.mark.parametrize("field, value, message", [
        ("blocklength", 1, "blocklength must be at least 2, got 1"),
        ("message_bits", 0, "message_bits must be at least 1, got 0"),
        ("helper_bits", -1, "helper_bits must be nonnegative, got -1"),
        ("trials", 0, "trials must be at least 1, got 0"),
    ])
    def test_field_out_of_range(self, field, value, message):
        fields = dict(blocklength=8, message_bits=4, helper_bits=0, eps=0.0, channel=CH,
                      codebook_seed=1, noise_seed=2, message_seed=3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            SchemeConfig(**{**fields, field: value})

    def test_zero_helper_theta0_is_pi(self):
        cfg = config_from_rates(8, 1.0, 0.0, CH, seed=1, eps=None, trials=10)
        assert cfg.eps == 0.0
        assert cfg.theta0_rad == math.pi


def _square_codebook():
    # 4 codewords at 0/90/180/270 degrees on the unit circle (n=2, P=0.5)
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return HelperCodebook(blocklength=2, power=0.5, help_size=4,
                          base_points=pts, rotation_seed_base=5)


class TestHelperSelect:
    def test_exact_alignment(self):
        cb = build_base_codebook(8, CH, 4, seed=2)
        z = cb.base_points[3] * 0.37  # aligned with codeword 3 under identity rotation
        t, angle = helper_select(cb, 0, z, rotation=np.eye(8))
        assert t == 3
        assert angle == pytest.approx(0.0, abs=1e-7)

    def test_antipodal_single_codeword(self):
        pts = np.array([[1.0, 0.0]])
        cb = HelperCodebook(blocklength=2, power=0.5, help_size=1,
                            base_points=pts, rotation_seed_base=1)
        t, angle = helper_select(cb, 0, -pts[0], rotation=np.eye(2))
        assert t == 0
        assert angle == pytest.approx(math.pi, abs=1e-12)

    def test_square_codebook_oracle(self):
        cb = _square_codebook()
        ten_deg = math.radians(10.0)
        z = np.array([math.cos(ten_deg), math.sin(ten_deg)])
        # brute-force comparison over the 4 candidates
        angles = [math.acos(np.clip(p @ z, -1, 1)) for p in cb.base_points]
        assert int(np.argmin(angles)) == 0
        t, angle = helper_select(cb, 0, z, rotation=np.eye(2))
        assert t == 0
        assert angle == pytest.approx(ten_deg, abs=1e-12)

    def test_zero_noise_convention(self):
        cb = _square_codebook()
        assert helper_select(cb, 0, np.zeros(2)) == (0, 0.0)

    def test_dimension_checked(self):
        cb = _square_codebook()
        with pytest.raises(ValueError):
            helper_select(cb, 0, np.zeros(3))


class TestTransmit:
    def test_power_constraint(self):
        cb = build_base_codebook(8, CH, 4, seed=2)
        for m, t in ((0, 0), (5, 3), (123, 7)):
            x = transmit(cb, m, t)
            assert float(x @ x) == pytest.approx(8 * CH.power, rel=1e-10)

    def test_identity_hook(self):
        cb = build_base_codebook(8, CH, 4, seed=2)
        assert np.allclose(transmit(cb, 0, 0, rotation=np.eye(8)), cb.base_points[0])

    def test_repeatable(self):
        cb = build_base_codebook(8, CH, 4, seed=2)
        assert np.array_equal(transmit(cb, 9, 2), transmit(cb, 9, 2))

    def test_index_range(self):
        cb = build_base_codebook(8, CH, 4, seed=2)
        with pytest.raises(ValueError):
            transmit(cb, 0, cb.help_size)


class TestDecode:
    def test_exact_codeword(self):
        cb = build_base_codebook(8, CH, 4, seed=2)
        y = transmit(cb, 17, 2)
        assert decode(cb, y, 2, range(64)) == 17

    def test_small_perturbation(self):
        cb = build_base_codebook(8, CH, 4, seed=2)
        y = transmit(cb, 17, 2)
        y = y + 1e-6 * math.sqrt(8 * CH.power) * np.ones(8) / math.sqrt(8)
        assert decode(cb, y, 2, range(64)) == 17

    def test_empty_space(self):
        cb = build_base_codebook(8, CH, 4, seed=2)
        with pytest.raises(ValueError):
            decode(cb, np.ones(8), 0, range(0))

    @pytest.mark.parametrize("t", [-1, 16])
    def test_index_range(self, t):
        cb = build_base_codebook(8, CH, 4, seed=2)  # 16 help indices
        with pytest.raises(ValueError, match=f"^help index {t} out of range"):
            decode(cb, np.ones(8), t, range(4))

    def test_brute_force_distance_oracle(self):
        # independent exhaustive distance scan, message_bits=10, n=16
        cb = build_base_codebook(16, CH, 8, seed=6)
        rng = np.random.default_rng(40)
        for _ in range(5):
            y = rng.standard_normal(16) * 3.0
            t = int(rng.integers(cb.help_size))
            got = decode(cb, y, t, range(1024))
            dists = []
            for m in range(1024):
                rot = haar_rotation(16, derive_seed(cb.rotation_seed_base, m))
                cand = rot @ cb.base_points[t]
                dists.append(float(np.sum((y - cand) ** 2)))
            assert got == int(np.argmin(dists))

    def test_min_distance_equals_max_inner_product(self):
        cb = build_base_codebook(12, CH, 6, seed=7)
        rng = np.random.default_rng(41)
        for _ in range(20):
            y = rng.standard_normal(12) * 2.0
            t = int(rng.integers(cb.help_size))
            scores, dists = [], []
            for m in range(256):
                cand = cb.rotation(m) @ cb.base_points[t]
                scores.append(float(cand @ y))
                dists.append(float(np.sum((y - cand) ** 2)))
            assert int(np.argmax(scores)) == int(np.argmin(dists))


class TestRunTrial:
    def test_deterministic(self):
        cfg = small_config()
        cb = build_codebook(cfg)
        a = run_trial(cfg, cb, 5, trial_noise(cfg, 999))
        b = run_trial(cfg, cb, 5, trial_noise(cfg, 999))
        assert a == b

    def test_record_consistency(self):
        cfg = small_config()
        cb = build_codebook(cfg)
        rec = run_trial(cfg, cb, 5, trial_noise(cfg, 1000))
        assert rec.error == (rec.decoded != rec.message)
        assert rec.covering_miss == (rec.helper_angle > cfg.theta0_rad)

    def test_norm_identity(self):
        cfg = small_config()
        cb = build_codebook(cfg)
        for seed in range(20):
            rec, x, z = run_trial(cfg, cb, seed, trial_noise(cfg, seed), return_vectors=True)
            y = x + z
            lhs = float(y @ y)
            rhs = float(x @ x) + float(z @ z) + \
                2.0 * np.linalg.norm(x) * np.linalg.norm(z) * math.cos(rec.helper_angle)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_noise_energy_concentrates(self):
        # chi-square upper tail of the engine's noise, drawn a chunk at a
        # time, stays below the Chernoff bound
        n, trials, delta = 64, 600, 0.5
        cfg = config_from_rates(n, 1.0 / 16.0, 0.125, CH, seed=12, eps=0.05, trials=trials)
        records = simulate(cfg, keep_records=True).records
        exceed = sum(rec.noise_energy > n * CH.noise_var * (1.0 + delta) for rec in records)
        chernoff = math.exp(-n / 2.0 * (delta - math.log1p(delta)))
        assert exceed / trials < chernoff


class TestSimulate:
    def test_single_trial_matches_record(self):
        cfg = small_config(trials=1)
        s = simulate(cfg, keep_records=True)
        (rec,) = s.records
        assert s.errors == int(rec.error)
        assert s.covering_misses == int(rec.covering_miss)
        assert s.mean_helper_angle == rec.helper_angle
        assert s.mean_decode_angle == rec.decode_angle

    def test_deterministic(self):
        cfg = small_config(trials=50)
        a, b = simulate(cfg), simulate(cfg)
        for field in ("errors", "covering_misses", "err_rate", "ci_low", "ci_high",
                      "mean_helper_angle", "mean_decode_angle"):
            assert getattr(a, field) == getattr(b, field)

    def test_exact_integer_accounting(self):
        cfg = small_config(trials=120)
        s = simulate(cfg, keep_records=True)
        assert s.errors == sum(r.error for r in s.records)
        assert s.covering_misses == sum(r.covering_miss for r in s.records)
        assert s.ci_low <= s.err_rate <= s.ci_high

    def test_analytic_route_agrees_with_exhaustive(self, monkeypatch):
        # the two decode routes must produce statistically identical error rates
        cfg = small_config(n=12, rate=0.9, trials=3000)
        assert plan(cfg).route != "analytic"
        se = simulate(cfg)
        monkeypatch.setattr(scheme, "EXHAUSTIVE_LIMIT", 1)
        assert plan(cfg).route == "analytic"
        sa = simulate(cfg)
        assert se.ci_low <= sa.ci_high and sa.ci_low <= se.ci_high

    def test_exhaustive_decoder_follows_the_analytic_law_at_2_14_messages(self, monkeypatch):
        # 2^14 messages at n = 16 with 16 helper points: the exact decoder,
        # on its per-help-index codebooks, against the analytic law, both as a
        # second route and over the exact run's own decode angles.
        ch = ChannelParams.from_snr(1.0)
        cfg = config_from_rates(16, 14 / 16, 0.25, ch, seed=41, trials=3000)
        assert (cfg.message_bits, cfg.helper_bits) == (14, 4)
        assert plan(cfg).route == "analytic"
        sa = simulate(cfg)
        monkeypatch.setattr(scheme, "EXHAUSTIVE_LIMIT", 1 << 14)
        assert plan(cfg).route == "grouped"
        se = simulate(cfg, keep_records=True)
        assert 0.05 <= se.err_rate <= 0.5
        assert se.ci_low <= sa.ci_high and sa.ci_low <= se.ci_high
        angles = np.array([r.decode_angle for r in se.records])
        p = _analytic_error_probability(16, angles, (1 << 14) - 1)
        assert abs(se.errors - p.sum()) <= 5 * math.sqrt(np.sum(p * (1 - p))) + 1

    def test_easy_regime_is_error_free(self):
        # one message bit, generous helper, high SNR
        ch = ChannelParams.from_snr(20.0)
        cfg = config_from_rates(16, 1.0 / 16.0, 0.75, ch, seed=15, eps=0.1, trials=500)
        assert cfg.message_bits == 1
        s = simulate(cfg)
        assert s.ci_high < 0.01

    def test_message_override(self):
        cfg = small_config(trials=10)
        s = simulate(cfg, keep_records=True, messages=[3] * 10)
        assert all(r.message == 3 for r in s.records)
        with pytest.raises(ValueError):
            simulate(cfg, messages=[1, 2])

    @pytest.mark.parametrize("bits, route, bad", [
        # Sent as all 20 messages, these once ran: -1 with message 63's
        # rotation, 20/20 errors; 2^40 on 20 bits, 18/20 errors; 2^40 on 6
        # bits raised IndexError from the rotation stack.
        (6, "stack", -1), (20, "analytic", 1 << 40), (6, "stack", 1 << 40)])
    def test_out_of_range_message_refused_before_drawing(self, monkeypatch, bits, route, bad):
        cfg = replace(config_from_rates(8, 0.75, 0.5, CH, seed=3, trials=20), message_bits=bits)
        assert plan(cfg).route == route
        messages = [5] * 20
        messages[7] = bad

        def drawn(*args, **kwargs):
            raise AssertionError("the cell drew something")

        for name in ("build_codebook", "draw_messages"):
            monkeypatch.setattr(scheme, name, drawn)
        with pytest.raises(ValueError, match=rf"^message {bad} at index 7 is out of range "
                                             rf"for {bits} bits$"):
            simulate(cfg, messages=messages)

    @pytest.mark.parametrize("run", ["run_trials", "simulate"])
    @pytest.mark.parametrize("n, rate, messages, error", [
        # On the exhaustive-decode cell (2^12 messages at n = 12) -1 once sent
        # message 4095's codeword and decided 4095, and 4096 raised IndexError
        # after the stack was built; on the analytic route (32 bits at n = 16)
        # -5 gave decisions such as 584849781.
        (12, 1.0, [-1, 0, 1], "^message -1 at index 0 is out of range for 12 bits$"),
        (12, 1.0, [4096, 0, 1], "^message 4096 at index 0 is out of range for 12 bits$"),
        (16, 2.0, [0, 1, -5], "^message -5 at index 2 is out of range for 32 bits$"),
        # A longer list once ran trials plan never admitted; a shorter one, fewer.
        (12, 1.0, [0, 1, 2, 3], "^need 3 messages, got 4$"),
        (12, 1.0, [0, 1], "^need 3 messages, got 2$"),
        # m + 0.5 was once recorded as sent on the analytic route, and hit an
        # IndexError on the scan only after the stack was built.
        (12, 1.0, [0, 1.5, 2], "^message 1.5 at index 1 is not an integer$"),
        (16, 2.0, [0, 1, np.float64(2.5)], "^message 2.5 at index 2 is not an integer$"),
        (16, 2.0, [0, 1.0, 2], "^message 1.0 at index 1 is not an integer$")],
        ids=["negative", "past-the-space", "negative-analytic", "too-many", "too-few",
             "half", "half-analytic", "integral-float"])
    def test_run_trials_checks_its_messages_first(self, monkeypatch, run, n, rate, messages,
                                                    error):
        cfg = config_from_rates(n, rate, 0.25, CH, seed=1, trials=3)
        assert (cfg.message_bits, plan(cfg).route) == ((32, "analytic") if n == 16 else (12, "stack"))

        def drawn(*args, **kwargs):
            raise AssertionError("the run planned, drew or built something")

        for name in ("plan", "draw_messages", "build_codebook", "build_base_codebook",
                     "candidate_rotations"):
            monkeypatch.setattr(scheme, name, drawn)
        with pytest.raises(ValueError, match=error):
            getattr(scheme, run)(cfg, messages=messages)

    @pytest.mark.parametrize("n, rate, bits", [(8, 9.0, 72), (12, 1.0, 12), (16, 2.0, 32)])
    def test_numpy_integer_messages_at_any_width(self, n, rate, bits):
        # np.arange(200) at 72 bits once raised OverflowError from the range
        # check; numpy integers of any dtype now run as the ints they hold.
        cfg = config_from_rates(n, rate, 0.25, CH, seed=1, trials=200)
        assert cfg.message_bits == bits
        want = [dataclasses.astuple(r) for r in
                simulate(cfg, keep_records=True, messages=list(range(200))).records]
        for messages in (np.arange(200), np.arange(200, dtype=np.uint16),
                         list(np.arange(200, dtype=np.int32))):
            s = simulate(cfg, keep_records=True, messages=messages)
            assert [dataclasses.astuple(r) for r in s.records] == want
            assert all(type(r.message) is int for r in s.records)

    def test_helper_alignment_tightens_with_blocklength(self):
        means = []
        for n in (12, 16, 24, 32):
            cfg = config_from_rates(n, 1.0, 0.5, CH, seed=4, eps=0.1, trials=400)
            s = simulate(cfg, keep_records=True)
            means.append(np.mean([math.cos(r.helper_angle) for r in s.records]))
            covered = [math.cos(r.helper_angle) for r in s.records if not r.covering_miss]
            assert min(covered) >= math.cos(cfg.theta0_rad) - 1e-12
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_help_indices_stay_within_the_configs_bits(self):
        # n = 29 at R_h = 0.5 has 15 helper bits; the codebook once took
        # ceil(29 * (15 / 29)) = 16 and drew 2^16 points.
        rate = 0.7 * capacity_cognizant(CH, 0.5)
        cfg = config_from_rates(29, rate, 0.5, CH, seed=5, eps=0.05, trials=300)
        assert cfg.helper_bits == 15
        s = simulate(cfg, keep_records=True)
        assert max(r.help_index for r in s.records) < 1 << 15


def route_config(n=8, bits=12, helper_bits=3, trials=64):
    eps = helper_bits / n / 2
    return SchemeConfig(blocklength=n, message_bits=bits, helper_bits=helper_bits, eps=eps,
                        channel=CH, codebook_seed=1, noise_seed=2, message_seed=3,
                        trials=trials)


class TestPlan:
    # Each boundary of the route rule, either side: 2^12 messages, H = n,
    # H n = trials, EXHAUSTIVE_LIMIT moved either way and H = 1.
    @pytest.mark.parametrize("kwargs, route", [
        ({}, "grouped"),  # 2^12 messages, H = n = 8, H n = trials = 64
        ({"bits": 13}, "analytic"),
        ({"helper_bits": 4}, "stack"),  # H = 2n
        ({"helper_bits": 4, "n": 16, "trials": 256}, "grouped"),
        ({"trials": 63}, "stack"),
        ({"trials": 65}, "grouped"),
        ({"bits": 13, "limit": 1 << 13}, "grouped"),
        ({"bits": 13, "limit": 1 << 13, "trials": 63}, "stack"),
        ({"bits": 1, "limit": 1}, "analytic"),
        ({"helper_bits": 0, "trials": 8}, "grouped"),  # H n = n
        ({"helper_bits": 0, "trials": 7}, "stack"),
        ({"helper_bits": 0, "bits": 13}, "analytic"),
    ])
    def test_route_either_side_of_each_boundary(self, monkeypatch, kwargs, route):
        kwargs = dict(kwargs)
        monkeypatch.setattr(scheme, "EXHAUSTIVE_LIMIT", kwargs.pop("limit", scheme.EXHAUSTIVE_LIMIT))
        assert plan(route_config(**kwargs)).route == route

    def test_threads_only_past_the_gate(self, monkeypatch):
        # The helper search alone, 2^helper_bits * n, against THREAD_MIN_WORK
        # = 2^16: 2^12 * 16 threads, with or without diagnostics, and 2^11 * 16
        # does not.  The diagnostics' n^3 is work, not gate: at one helper
        # point n = 40 and n = 41 (40 + 40^3 < 2^16 <= 41 + 41^3) both stay
        # serial, though it still orders the sweep.
        for diagnostics in (False, True):
            assert plan(route_config(n=16, helper_bits=12), diagnostics, threads=4).threads == 4
            assert plan(route_config(n=16, helper_bits=11), diagnostics, threads=4).threads == 1
        for n in (40, 41):
            assert plan(route_config(n=n, helper_bits=0), True, threads=4).threads == 1
            assert plan(route_config(n=n, helper_bits=0), threads=4).threads == 1
        assert (plan(route_config(n=41, helper_bits=0), True).work
                == plan(route_config(n=41, helper_bits=0)).work + 64 * 41 ** 3)
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert plan(route_config(n=16, helper_bits=12)).threads == 3

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 256), helper_bits=st.integers(0, 12))
    # helper_bits / n times n lands one ulp above the integer at these rows
    @example(n=29, helper_bits=15)
    @example(n=25, helper_bits=7)
    @example(n=25, helper_bits=14)
    def test_the_codebook_is_the_planned_one(self, n, helper_bits):
        cfg = route_config(n=n, helper_bits=helper_bits)
        cb = build_codebook(cfg)
        assert cb.help_size == 2 ** helper_bits
        (store,) = [words for words, what in plan(cfg).storage if what.startswith("codebook")]
        assert store == cb.base_points.size

    def test_run_trials_admits_its_run_before_drawing(self, monkeypatch):
        # The exhaustive-decode benchmark's cell stacks 2^12 rotations of
        # 12 x 12, over a cap of 2^16 words.
        cfg = config_from_rates(12, 1.0, 0.25, CH, seed=1, trials=200)
        assert (cfg.message_bits, cfg.helper_bits) == (12, 3)
        monkeypatch.setattr(scheme, "MAX_CODEBOOK_FLOATS", 1 << 16)

        def drawn(*args, **kwargs):
            raise AssertionError("the run drew something")

        for name in ("build_base_codebook", "build_codebook", "draw_messages"):
            monkeypatch.setattr(scheme, name, drawn)
        with pytest.raises(CodebookSizeError, match="^rotation stack of 4096 12x12 matrices"):
            scheme.run_trials(cfg)


class TestAnalyticErrorProbability:
    ANGLES = np.linspace(0.0, math.pi, 401)

    @pytest.mark.parametrize("competitors", [1, 2, 4095, 2**40, 2**62])
    def test_matches_float_exponent(self, competitors):
        c = cap_ratio_exact(16, self.ANGLES)
        with np.errstate(divide="ignore"):
            direct = -np.expm1(float(competitors) * np.log1p(-c))
        got = _analytic_error_probability(16, self.ANGLES, competitors)
        assert np.allclose(got, direct, rtol=1e-12, atol=1e-15)
        assert got[0] == 0.0 and got[-1] == 1.0

    def test_competitors_beyond_float_range(self):
        # 2^1024 - 1 and 2^2000 competitors: no OverflowError, p stays in [0, 1]
        for competitors in (2**1024 - 1, 2**2000):
            p = _analytic_error_probability(1024, self.ANGLES, competitors)
            assert np.all((p >= 0.0) & (p <= 1.0))
            assert p[0] == 0.0 and p[-1] == 1.0
        assert _analytic_error_probability(16, 1.0, 2**2000) == 1.0
        # cap ratio about 2^-2055, below the double range: 2^2458 competitors still win
        assert _analytic_error_probability(2048, 0.5233, 2**2458) == 1.0

    @pytest.mark.parametrize("rate, errors", [(1.2, 200), (0.9, 0)])
    def test_long_helperless_cell_follows_capacity(self, rate, errors):
        # SNR 3 without help has capacity 1 bit: at n = 2048 every trial errs
        # at rate 1.2 and none at rate 0.9, though the cap ratios underflow
        cfg = config_from_rates(2048, rate, 0.0, CH, seed=5, eps=0.0, trials=200)
        assert plan(cfg).route == "analytic"
        assert simulate(cfg).errors == errors


def bytes_loop_messages(cfg):
    """The per-trial Generator.bytes draw that draw_messages must reproduce."""
    rng = np.random.default_rng(cfg.message_seed)
    nbytes = (cfg.message_bits + 7) // 8
    mask = (1 << cfg.message_bits) - 1
    return [int.from_bytes(rng.bytes(nbytes), "little") & mask for _ in range(cfg.trials)]


class TestDrawMessages:
    @pytest.mark.parametrize("bits", [1, 8, 31, 32, 33, 64, 65, 74, 128])
    def test_equals_bytes_loop(self, bits):
        cfg = SchemeConfig(blocklength=8, message_bits=bits, helper_bits=0, eps=0.0,
                           channel=CH, codebook_seed=1, noise_seed=2,
                           message_seed=derive_seed(9, bits), trials=257)
        got = draw_messages(cfg)
        assert got == bytes_loop_messages(cfg)
        assert all(type(m) is int and 0 <= m < 1 << bits for m in got)


class TestWrongMessage:
    def test_uniform_beyond_double_resolution(self):
        # 74 message bits at n = 8 is far above capacity, so every trial errs
        # and draws its wrong message from the 2^74 - 1 others.
        cfg = config_from_rates(8, 74 / 8, 0.5, CH, seed=17, eps=0.1, trials=300)
        assert cfg.message_bits == 74 and plan(cfg).route == "analytic"
        s = simulate(cfg, keep_records=True)
        assert s.errors == cfg.trials
        wrong = [r.decoded for r in s.records]
        assert all(0 <= d < 1 << 74 and d != r.message for d, r in zip(wrong, s.records))
        # The draw before skipping m; int(u * (M - 1)) with a 53-bit uniform u
        # would give only multiples of 2^20 here.
        drawn = [d - (d > r.message) for d, r in zip(wrong, s.records)]
        assert any(w & ((1 << 20) - 1) for w in drawn)
        assert len(set(wrong)) == len(wrong)
        # Replayed from chunk 0's generator (the stream contract): the normal
        # block, the uniform block, then the rejection draws in row order.
        cb = build_codebook(cfg)
        rng = np.random.default_rng(derive_seed(cfg.noise_seed, 0))
        w = rng.standard_normal((CHUNK_TRIALS, 8)) * math.sqrt(CH.noise_var)
        u = rng.random((CHUNK_TRIALS, 2)).tolist()
        for i, rec in enumerate(s.records[:CHUNK_TRIALS]):
            ref = run_trial(cfg, cb, rec.message, w[i], u[i], rng)
            assert ref.decoded == rec.decoded, i
