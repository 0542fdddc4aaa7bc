import dataclasses
import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gausshelp import feedback, scheme
from gausshelp.capacity import ChannelParams
from gausshelp.feedback import (
    FeedbackConfig,
    encode_time_zero,
    inner_message,
    reconstruct,
    simulate_feedback,
    time_zero_noise,
)
from gausshelp.harness import SweepSpec, cell_config
from gausshelp.scheme import SchemeConfig, config_from_rates, plan, run_trials, simulate

CH = ChannelParams.from_snr(3.0)


def feedback_config(n=12, rate=0.5, rh=0.5, seed=3, trials=300):
    inner = config_from_rates(n, rate, rh, CH, seed, eps=0.1, trials=trials)
    return FeedbackConfig(inner=inner)


class TestEncodeTimeZero:
    def test_zero_message(self):
        assert encode_time_zero(0, 3, 4.0) == 0.0

    def test_unit_power_grid(self):
        # with P = 1 and 3 bits the grid step is 1/8
        for m in range(8):
            assert encode_time_zero(m, 3, 1.0) == pytest.approx(m / 8.0, abs=1e-15)

    def test_stays_below_sqrt_power(self):
        for m in range(16):
            assert 0.0 <= encode_time_zero(m, 4, 9.0) < 3.0

    def test_range_check(self):
        with pytest.raises(ValueError):
            encode_time_zero(8, 3, 1.0)
        with pytest.raises(ValueError):
            encode_time_zero(-1, 3, 1.0)


class TestInnerMessage:
    def test_small_positive_noise(self):
        # 0.3 * 8 = 2.4, floor 2
        assert inner_message(0.3, 3, 1.0) == 2

    def test_negative_noise_wraps(self):
        # floor(-0.3 * 8) = -3, mod 8 = 5
        assert inner_message(-0.3, 3, 1.0) == 5

    def test_zero_noise(self):
        assert inner_message(0.0, 3, 1.0) == 0

    def test_power_rescaling(self):
        # scaling z0 and sqrt(P) together leaves the quantizer unchanged
        for z0 in (-1.7, -0.2, 0.05, 0.9, 2.4):
            assert inner_message(z0, 4, 1.0) == inner_message(3.0 * z0, 4, 9.0)

    @settings(max_examples=500, deadline=None)
    @given(z0=st.one_of(st.sampled_from([0.0, -0.0, 4.0, -4.0]),
                        st.floats(-8.0, 8.0, allow_subnormal=False)),
           mb=st.integers(1, 1023), power=st.floats(1e-3, 1e3))
    def test_equals_the_float_map_wherever_it_is_finite(self, z0, mb, power):
        # The float map floor(z0 * (2^mb / sqrt(P))) mod 2^mb, where its
        # double is finite and z0 / sqrt(P) is not subnormal.
        scaled = z0 * ((1 << mb) / math.sqrt(power))
        assume(math.isfinite(scaled))
        assume(z0 == 0.0 or abs(z0 * (1.0 / math.sqrt(power))) >= sys.float_info.min)
        assert inner_message(z0, mb, power) == math.floor(scaled) % (1 << mb)

    @pytest.mark.parametrize("mb", [1024, 1500, 4096])
    def test_exact_past_the_float_range(self, mb):
        # 2^mb is no double here; at P = 4 (sqrt(P) = 2, exact) the map is
        # floor(z0 * 2^mb / 2) mod 2^mb in rationals
        for z0 in (0.3, -0.3, 1e-300, -4.0):
            assert inner_message(z0, mb, 4.0) == math.floor(Fraction(z0) * 2 ** mb / 2) % 2 ** mb


class TestReconstruct:
    def test_worked_example(self):
        # m = 6, mb = 3, P = 1: x0 = 0.75, z0 = 0.3 -> y0 = 1.05,
        # quantized noise floor(0.3*8) = 2, floor(1.05*8 - 2) = 6
        y0 = encode_time_zero(6, 3, 1.0) + 0.3
        assert inner_message(0.3, 3, 1.0) == 2
        assert reconstruct(y0, 2, 3, 1.0) == 6

    def test_range_check(self):
        with pytest.raises(ValueError):
            reconstruct(0.5, 8, 3, 1.0)

    @pytest.mark.parametrize("power", [1.0, 4.0])
    def test_exhaustive_identity(self, power):
        # correct inner message always recovers m, for every message and
        # an off-grid sweep of noise values
        mb, size = 4, 16
        for m in range(size):
            for z0 in np.linspace(-2.83, 2.71, 40):
                z0 = float(z0)
                y0 = encode_time_zero(m, mb, power) + z0
                mp = inner_message(z0, mb, power)
                assert reconstruct(y0, mp, mb, power) == m

    def test_wrong_inner_message_breaks_recovery(self):
        mb, power, m, z0 = 4, 1.0, 6, 0.37
        y0 = encode_time_zero(m, mb, power) + z0
        mp = inner_message(z0, mb, power)
        wrong = (mp + 5) % (1 << mb)
        assert reconstruct(y0, wrong, mb, power) != m


class TestSimulateFeedback:
    def test_summary_shape(self):
        cfg = feedback_config()
        s = simulate_feedback(cfg)
        assert s.scheme == "feedback"
        assert s.trials == cfg.trials
        assert 0 <= s.errors <= s.trials
        assert s.boundary_events == 0

    def test_deterministic(self):
        cfg = feedback_config(trials=100)
        a, b = simulate_feedback(cfg), simulate_feedback(cfg)
        for field in ("errors", "covering_misses", "err_rate", "mean_helper_angle"):
            assert getattr(a, field) == getattr(b, field)

    def test_error_rate_tracks_inner_scheme(self):
        # same inner configuration run standalone: the error rates must agree
        # because outer errors happen exactly when inner ones do
        cfg = feedback_config(n=12, rate=0.9, trials=1500)
        fb = simulate_feedback(cfg)
        inner = simulate(cfg.inner)
        assert fb.ci_low <= inner.ci_high and inner.ci_low <= fb.ci_high

    def test_helper_never_sees_message(self):
        # replaying with a different outer message draw (different message
        # seed) leaves helper angles untouched: the help depends only on noise
        from dataclasses import replace

        cfg_a = feedback_config(trials=60)
        cfg_b = FeedbackConfig(inner=replace(cfg_a.inner, message_seed=999))
        sa = simulate_feedback(cfg_a, keep_records=True)
        sb = simulate_feedback(cfg_b, keep_records=True)
        angles_a = [r.helper_angle for r in sa.records]
        angles_b = [r.helper_angle for r in sb.records]
        assert angles_a == angles_b

    def test_noise_energy_includes_time_zero(self):
        cfg = feedback_config(trials=50)
        s = simulate_feedback(cfg, keep_records=True)
        n = cfg.inner.blocklength
        # n+1 channel uses of unit-variance noise
        mean_energy = np.mean([r.noise_energy for r in s.records])
        se = math.sqrt(2.0 * (n + 1)) / math.sqrt(len(s.records))
        assert abs(mean_energy - (n + 1)) < 4.0 * se


class TestIntegerTimeZeroMap:
    """simulate_feedback's time-zero map in units of sqrt(P)/2^mb, at any width."""

    @settings(max_examples=60, deadline=None)
    @given(mb=st.integers(1, 200), snr=st.floats(0.1, 100.0), seed=st.integers(0, 2**31),
           offsets=st.lists(st.one_of(st.just(0), st.integers(1, 2**200)),
                            min_size=1, max_size=8))
    def test_receiver_returns_m_iff_inner_decision_is_right(self, mb, snr, seed, offsets):
        # The engine's inner decisions are replaced by m' + offset (mod 2^mb):
        # the outer decision must be m exactly when the inner one is m'.
        size = 1 << mb
        inner = SchemeConfig(blocklength=4, message_bits=mb, helper_bits=0, eps=0.0,
                             channel=ChannelParams.from_snr(snr), codebook_seed=seed,
                             noise_seed=seed + 1, message_seed=seed + 2,
                             trials=len(offsets))
        seen = {}

        def decide(cfg, m_primes, *args, **kwargs):
            cols = run_trials(cfg, m_primes, *args, **kwargs)
            decoded = [(mp + off) % size for mp, off in zip(m_primes, offsets)]
            seen.update(m_primes=list(m_primes), decoded=decoded)
            return replace(cols, decoded=decoded,
                           error=np.array([d != mp for d, mp in zip(decoded, m_primes)]))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scheme, "EXHAUSTIVE_LIMIT", 1)  # the analytic route at every mb
            mp.setattr(scheme, "run_trials", decide)
            s = simulate_feedback(FeedbackConfig(inner=inner), keep_records=True)
        for rec, m_prime, d in zip(s.records, seen["m_primes"], seen["decoded"]):
            assert 0 <= m_prime < size and 0 <= rec.decoded < size
            assert (rec.decoded == rec.message) == (d == m_prime)
            assert rec.error == (d != m_prime)

    @pytest.mark.parametrize("i_n, bits", [(1, 52), (2, 69)])
    def test_wide_cells_keep_the_identity(self, monkeypatch, i_n, bits):
        # The n = 48 and n = 64 cells failed the identity at trials 6 and 0
        # when the map was a float round trip.
        spec = SweepSpec(snr=(3.0,), helper_rate=(0.25,), blocklength=(12, 48, 64),
                         rate_fraction=(0.7,), trials=300, base_seed=1, scheme="feedback")
        cfg = cell_config(spec, 0, 0, i_n, 0)
        assert cfg.message_bits == bits
        inner_errors = []

        def spy(*args, **kwargs):
            cols = run_trials(*args, **kwargs)
            inner_errors.extend(cols.error.tolist())
            return cols

        monkeypatch.setattr(scheme, "run_trials", spy)
        s = simulate_feedback(cfg, keep_records=True)
        assert s.trials == 300 and s.boundary_events == 0
        assert [rec.error for rec in s.records] == inner_errors
        assert s.errors == sum(inner_errors)

    @settings(max_examples=60, deadline=None)
    @given(mb=st.integers(1, 16), snr=st.floats(0.1, 100.0), seed=st.integers(0, 2**31),
           blocks=st.lists(st.tuples(st.integers(-2**20, 2**20), st.floats(0.01, 0.99),
                                     st.integers(0, 2**16 - 1)), min_size=1, max_size=8))
    def test_relabelled_decision_is_the_receivers(self, mb, snr, seed, blocks):
        # z0 = (j + f) sqrt(P)/2^mb sits at least 0.01 of a step from every
        # quantization edge, where the float receiver is exact too: for any
        # inner decision d, the relabelled record decides
        # reconstruct(encode_time_zero(m) + z0, d).
        size, ch = 1 << mb, ChannelParams.from_snr(snr)
        z0s = np.array([(j + f) * math.sqrt(ch.power) / size for j, f, _ in blocks])
        decisions = [d % size for _, _, d in blocks]
        inner = SchemeConfig(blocklength=4, message_bits=mb, helper_bits=0, eps=0.0, channel=ch,
                             codebook_seed=seed, noise_seed=seed + 1, message_seed=seed + 2,
                             trials=len(blocks))

        def decide(cfg, m_primes, *args, **kwargs):
            cols = run_trials(cfg, m_primes, *args, **kwargs)
            return replace(cols, decoded=decisions,
                           error=np.array([d != mp for d, mp in zip(decisions, m_primes)]))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scheme, "EXHAUSTIVE_LIMIT", 1)  # the analytic route at every mb
            mp.setattr(scheme, "run_trials", decide)
            mp.setattr(feedback, "time_zero_noise", lambda cfg: z0s)
            s = simulate_feedback(FeedbackConfig(inner=inner), keep_records=True)
        for rec, z0, d in zip(s.records, z0s.tolist(), decisions):
            y0 = encode_time_zero(rec.message, mb, ch.power) + z0
            assert rec.decoded == reconstruct(y0, d, mb, ch.power)


def same_value(a, b):
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


class TestRelabelledInnerRun:
    """A feedback summary is the inner run's on the quantized time-zero noise."""

    @pytest.mark.parametrize("cfg, route", [
        (feedback_config(rate=1.2, trials=200), "analytic"),
        (feedback_config(rh=0.25, trials=200), "grouped"),
        (feedback_config(trials=200), "stack"),
        (cell_config(SweepSpec(snr=(3.0,), helper_rate=(0.0,), blocklength=(1024,),
                               rate_fraction=(1.01,), trials=20, base_seed=1, scheme="feedback"),
                     0, 0, 0, 0), "analytic"),
    ], ids=["analytic", "grouped", "stack", "1035-bit"])
    def test_summary_equals_the_inner_run(self, cfg, route):
        assert plan(cfg.inner).route == route
        fb = simulate_feedback(cfg)
        m_primes = [inner_message(z0, cfg.message_bits, cfg.channel.power)
                    for z0 in time_zero_noise(cfg).tolist()]
        inner = simulate(cfg.inner, messages=m_primes)
        assert (fb.scheme, inner.scheme) == ("feedback", "cognizant")
        for f in dataclasses.fields(fb):
            if f.name not in ("scheme", "wall_time_s"):
                assert same_value(getattr(fb, f.name), getattr(inner, f.name)), f.name


class TestTimeZeroRange:
    """Cells past the float range of the time-zero map run, and keep the identity."""

    @staticmethod
    def wide_config(bits, snr=3.0):
        return FeedbackConfig(inner=config_from_rates(
            bits, 1.0, 0.0, ChannelParams.from_snr(snr), seed=5, eps=0.0, trials=2))

    @pytest.mark.parametrize("bits, snr", [(1024, 3.0), (1500, 3.0), (1023, 0.1)])
    def test_runs_past_the_float_range(self, bits, snr):
        # 2^mb is no double past 1023 bits; at 1023 bits and P = 0.1,
        # 2^mb / sqrt(P) overflows the double range
        cfg = self.wide_config(bits, snr)
        assert cfg.message_bits == bits
        s = simulate_feedback(cfg, keep_records=True)
        assert s.trials == 2 and s.boundary_events == 0
        assert all(0 <= rec.message < 1 << bits and 0 <= rec.decoded < 1 << bits
                   for rec in s.records)

    def test_noise_past_the_float_range_runs(self, monkeypatch):
        # At 1023 bits and P = 3, z0 * 2^mb / sqrt(P) overflows a double once |z0| > 2 sqrt(P)
        monkeypatch.setattr(feedback, "time_zero_noise", lambda cfg: np.array([4.0, -4.0]))
        s = simulate_feedback(self.wide_config(1023))
        assert s.trials == 2 and s.boundary_events == 0

    def test_widest_cell_runs(self):
        s = simulate_feedback(self.wide_config(1023))
        assert s.trials == 2 and s.boundary_events == 0


class TestWideCellsEqualCognizant:
    """Criterion 9 past 1023 message bits: the outer errors are the inner scheme's."""

    @pytest.mark.parametrize("n, fraction, bits", [(1024, 1.01, 1035), (2048, 1.0, 2048)])
    def test_replay_matches_trial_by_trial(self, n, fraction, bits):
        spec = SweepSpec(snr=(3.0,), helper_rate=(0.0,), blocklength=(n,),
                         rate_fraction=(fraction,), trials=200, base_seed=1, scheme="feedback")
        cfg = cell_config(spec, 0, 0, 0, 0)
        assert cfg.message_bits == bits
        fb = simulate_feedback(cfg, keep_records=True)
        m_primes = [inner_message(z0, bits, cfg.channel.power) for z0 in time_zero_noise(cfg)]
        replay = simulate(cfg.inner, keep_records=True, messages=m_primes)
        assert [r.error for r in fb.records] == [r.error for r in replay.records]
        # At capacity the cell both errs and decodes, so the match is not vacuous.
        assert 0 < fb.errors < fb.trials
