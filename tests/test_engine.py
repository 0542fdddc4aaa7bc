"""The chunked trial engine against the per-trial reference, and its pinned output."""

import io
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gausshelp import scheme
from gausshelp.capacity import ChannelParams
from gausshelp.cli import cli
from gausshelp.codebook import CodebookSizeError, derive_seed
from gausshelp.converse import empirical_correlations
from gausshelp.feedback import (
    _Z0_STREAM_OFFSET,
    FeedbackConfig,
    encode_time_zero,
    inner_message,
    reconstruct,
    simulate_feedback,
)
from gausshelp.harness import _run_cell_safe
from gausshelp.scheme import (
    CHUNK_TRIALS,
    build_codebook,
    candidate_rotations,
    config_from_rates,
    exhaustive_route,
    run_trial,
    simulate,
)

CH = ChannelParams.from_snr(3.0)
DATA = Path(__file__).parent / "data"
# Trial counts around the chunk edge.
EDGE_TRIALS = (1, CHUNK_TRIALS - 1, CHUNK_TRIALS + 1)


def analytic_config(trials):
    cfg = config_from_rates(16, 1.2, 0.5, CH, seed=21, eps=0.1, trials=trials)
    assert not exhaustive_route(cfg)
    return cfg


def exhaustive_config(trials):
    cfg = config_from_rates(10, 0.9, 0.5, CH, seed=22, eps=0.1, trials=trials)
    assert exhaustive_route(cfg)
    return cfg


def assert_same_trial(rec, ref, i):
    for field in ("message", "help_index", "covering_miss", "decoded", "error"):
        assert getattr(rec, field) == getattr(ref, field), (i, field)
    assert rec.helper_angle == pytest.approx(ref.helper_angle, abs=1e-12, rel=0), i
    assert rec.decode_angle == pytest.approx(ref.decode_angle, abs=1e-12, rel=0), i
    assert rec.noise_energy == pytest.approx(ref.noise_energy, rel=1e-12), i


class TestEngineMatchesRunTrial:
    @pytest.mark.parametrize("trials", EDGE_TRIALS)
    @pytest.mark.parametrize("make", [analytic_config, exhaustive_config])
    def test_cognizant(self, make, trials):
        cfg = make(trials)
        # correlation diagnostics need at least two trials
        diagnostics = trials > 1
        s = simulate(cfg, keep_records=True, diagnostics=diagnostics)
        cb = build_codebook(cfg)
        rotations = candidate_rotations(cfg, cb)
        pairs = []
        for i, rec in enumerate(s.records):
            ref, x, z = run_trial(cfg, cb, rec.message, derive_seed(cfg.noise_seed, i),
                                  rotations=rotations, return_vectors=True)
            assert_same_trial(rec, ref, i)
            pairs.append((x, z))
        assert len(s.records) == trials
        if diagnostics:
            want = empirical_correlations(pairs).per_index_rho
            assert np.allclose(s.corr_profile.per_index_rho, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("trials", EDGE_TRIALS)
    def test_feedback(self, trials):
        inner = config_from_rates(12, 0.9, 0.5, CH, seed=23, eps=0.1, trials=trials)
        mb, power = inner.message_bits, CH.power
        s = simulate_feedback(FeedbackConfig(inner=inner), keep_records=True)
        cb = build_codebook(inner)
        rotations = candidate_rotations(inner, cb)
        for i, rec in enumerate(s.records):
            rng = np.random.default_rng(derive_seed(inner.noise_seed, _Z0_STREAM_OFFSET + i))
            z0 = float(rng.standard_normal()) * math.sqrt(CH.noise_var)
            ref = run_trial(inner, cb, inner_message(z0, mb, power),
                            derive_seed(inner.noise_seed, i), rotations=rotations)
            y0 = encode_time_zero(rec.message, mb, power) + z0
            m_hat = reconstruct(y0, ref.decoded, mb, power)
            ref = replace(ref, message=rec.message, decoded=m_hat, error=m_hat != rec.message,
                          noise_energy=ref.noise_energy + z0 * z0)
            assert_same_trial(rec, ref, i)
        assert len(s.records) == trials


def test_oversized_rotation_stack_fails_fast():
    # 2^24 rotations of 16 x 16 would take about 34 GB; refused before allocating,
    # and a sweep turns the refusal into a skipped cell
    cfg = replace(config_from_rates(16, 1.5, 0.25, CH, seed=1, trials=1),
                  message_bits=24, decoder="exhaustive")
    with pytest.raises(CodebookSizeError, match="rotation stack"):
        simulate(cfg)
    assert isinstance(_run_cell_safe((cfg, False)), CodebookSizeError)


def test_diagnostics_run_under_a_small_size_cap(monkeypatch):
    # 200 trials at n = 16 under a cap of 10^4 floats: no trials x n array is
    # kept, so the cap does not apply, and the profile from running sums
    # matches the one from the reference's stored vectors
    monkeypatch.setattr(scheme, "MAX_CODEBOOK_FLOATS", 10_000)
    cfg = analytic_config(200)
    s = simulate(cfg, keep_records=True, diagnostics=True)
    cb = build_codebook(cfg)
    pairs = [run_trial(cfg, cb, rec.message, derive_seed(cfg.noise_seed, i),
                       return_vectors=True)[1:] for i, rec in enumerate(s.records)]
    want = empirical_correlations(pairs)
    assert s.corr_profile.trials == want.trials == 200
    assert np.allclose(s.corr_profile.per_index_rho, want.per_index_rho, rtol=0, atol=1e-12)


def test_diagnostics_memory_does_not_grow_with_trials():
    # The extra peak that diagnostics add (the per-chunk rotations and
    # vectors) is the same at 512 and 8192 trials; one stored trials x n
    # array would add 8 * 7680 * 32 bytes, about 2 MB, between the two.
    n, few, many = 32, 512, 8192

    def extra_peak(trials):
        cfg = config_from_rates(n, 1.2, 0.25, CH, seed=31, eps=0.1, trials=trials)
        peaks = []
        for diagnostics in (True, False):
            tracemalloc.start()
            try:
                simulate(cfg, diagnostics=diagnostics)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks[0] - peaks[1]

    assert extra_peak(many) - extra_peak(few) < 8 * (many - few) * n / 2


def test_golden_sweep_csv(tmp_path):
    """`gausshelp sweep --repro` on a cognizant and a feedback grid, byte for byte."""
    out = io.BytesIO()
    for grid in ("golden_cognizant.conf", "golden_feedback.conf"):
        path = tmp_path / f"{grid}.csv"
        assert cli(["sweep", "--config", str(DATA / grid), "--out", str(path),
                    "--repro", "--workers", "1"]) == 0
        out.write(path.read_bytes())
    assert out.getvalue() == (DATA / "golden_sweep.csv").read_bytes()
