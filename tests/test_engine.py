"""The chunked trial engine against the per-trial reference, and its pinned output.

The replay rebuilds every trial's draws from the stream contract as the scheme
module documents it, not through the engine's code, and checks the engine
against run_trial trial for trial.
"""

import dataclasses
import io
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gausshelp import feedback, harness, scheme, search
from gausshelp.capacity import ChannelParams
from gausshelp.cli import cli
from gausshelp.codebook import CodebookSizeError, HelperCodebook, derive_seed, derive_seeds
from gausshelp.converse import CorrelationSums, empirical_correlations
from gausshelp.feedback import (
    _Z0_STREAM_OFFSET,
    FeedbackConfig,
    encode_time_zero,
    inner_message,
    reconstruct,
    simulate_feedback,
)
from gausshelp.geometry import achievable_rate_threshold
from gausshelp.harness import SweepSpec, _run_cell_safe, run_sweep
from gausshelp.scheme import (
    CHUNK_TRIALS,
    WORKERS_ENV,
    build_codebook,
    candidate_rotations,
    config_from_rates,
    plan,
    run_trial,
    simulate,
)

CH = ChannelParams.from_snr(3.0)
DATA = Path(__file__).parent / "data"
# Trial counts around the chunk edge.
EDGE_TRIALS = (1, CHUNK_TRIALS - 1, CHUNK_TRIALS + 1)
# ... and one that leaves several chunks in flight on every thread count.
THREADED_TRIALS = EDGE_TRIALS + (5 * CHUNK_TRIALS + 3,)
# Chunks per engine batch where a test sets the batch size, and trial counts
# that end mid-batch and span one, two and three batches.
BATCH = 2
BATCH_TRIALS = (BATCH * CHUNK_TRIALS - 1, BATCH * CHUNK_TRIALS + 1, 2 * BATCH * CHUNK_TRIALS + 3)


def force_batch(monkeypatch, batch):
    """Have plan put `batch` stream chunks in every engine batch."""
    monkeypatch.setattr(scheme, "_batch_chunks", lambda *args: batch)


def analytic_config(trials):
    cfg = config_from_rates(16, 1.2, 0.5, CH, seed=21, eps=0.1, trials=trials)
    assert plan(cfg).route == "analytic"
    return cfg


def exhaustive_config(trials):
    cfg = config_from_rates(10, 0.9, 0.5, CH, seed=22, eps=0.1, trials=trials)
    assert plan(cfg).route != "analytic"
    return cfg


def grouped_config(trials, n=12, helper_bits=3):
    # Decoded against per-help-index codebooks when 2^helper_bits <= n and
    # 2^helper_bits * n <= trials, else by the rotation-stack scan.
    cfg = config_from_rates(n, 0.9, helper_bits / n, CH, seed=25, trials=trials)
    assert cfg.helper_bits == helper_bits and plan(cfg).route != "analytic"
    help_size = 1 << helper_bits
    assert (plan(cfg).route == "grouped") == (help_size <= n and help_size * n <= trials)
    return cfg


def boundary_grouped_config(trials):
    return grouped_config(trials, n=8, helper_bits=3)  # 8 helper points at n = 8


def boundary_stack_config(trials):
    return grouped_config(trials, n=8, helper_bits=4)  # 16 helper points at n = 8


def rejection_config(trials):
    # 74-bit messages at n = 8: every trial errs and draws its wrong message
    # by rejection on its chunk's generator.
    cfg = config_from_rates(8, 74 / 8, 0.5, CH, seed=17, eps=0.1, trials=trials)
    assert cfg.message_bits == 74 and plan(cfg).route == "analytic"
    return cfg


def contract_draws(cfg, trials):
    """Each trial's (w, uniforms, generator) under the stream contract, in trial order.

    Chunk c draws from default_rng(derive_seed(noise_seed, c)): a (k, n)
    standard normal block scaled by sigma, then on the analytic route a (k, 2)
    uniform block.  The wrong messages among more than 2^53 others are drawn
    from the same generator afterwards, in row order, so the trials must be
    replayed in the order given.
    """
    sigma = math.sqrt(cfg.channel.noise_var)
    for c, lo in enumerate(range(0, trials, CHUNK_TRIALS)):
        k = min(CHUNK_TRIALS, trials - lo)
        rng = np.random.default_rng(derive_seed(cfg.noise_seed, c))
        w = rng.standard_normal((k, cfg.blocklength)) * sigma
        u = [None] * k if plan(cfg).route != "analytic" else rng.random((k, 2)).tolist()
        for j in range(k):
            yield w[j], u[j], rng


def assert_same_trial(rec, ref, i):
    for field in ("message", "help_index", "covering_miss", "decoded", "error"):
        assert getattr(rec, field) == getattr(ref, field), (i, field)
    assert rec.helper_angle == pytest.approx(ref.helper_angle, abs=1e-12, rel=0), i
    assert rec.decode_angle == pytest.approx(ref.decode_angle, abs=1e-12, rel=0), i
    assert rec.noise_energy == pytest.approx(ref.noise_energy, rel=1e-12), i


class TestEngineMatchesRunTrial:
    @pytest.mark.parametrize("trials", EDGE_TRIALS)
    @pytest.mark.parametrize("make", [analytic_config, exhaustive_config, grouped_config,
                                      boundary_grouped_config, boundary_stack_config])
    def test_cognizant(self, make, trials):
        cfg = make(trials)
        # correlation diagnostics need at least two trials
        diagnostics = trials > 1
        s = simulate(cfg, keep_records=True, diagnostics=diagnostics)
        cb = build_codebook(cfg)
        rotations = candidate_rotations(cfg, cb, plan(cfg))
        pairs = []
        for i, (rec, draws) in enumerate(zip(s.records, contract_draws(cfg, trials))):
            ref, x, z = run_trial(cfg, cb, rec.message, *draws, rotations=rotations,
                                  return_vectors=True)
            assert_same_trial(rec, ref, i)
            pairs.append((x, z))
        assert len(s.records) == trials
        if diagnostics:
            want = empirical_correlations(pairs).per_index_rho
            assert np.allclose(s.corr_profile.per_index_rho, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("trials", BATCH_TRIALS)
    @pytest.mark.parametrize("make", [analytic_config, rejection_config, grouped_config,
                                      boundary_stack_config])
    def test_cognizant_in_batches(self, monkeypatch, make, trials):
        # A batch draws each chunk's noise, uniforms and wrong messages from
        # that chunk's own generator, in the contract's order, and adds its
        # diagnostics a chunk at a time: the replay above, chunk by chunk,
        # still matches trial for trial.
        force_batch(monkeypatch, BATCH)
        assert plan(make(trials)).batch == BATCH
        self.test_cognizant(make, trials)

    @pytest.mark.parametrize("trials", EDGE_TRIALS)
    def test_feedback(self, trials):
        inner = config_from_rates(12, 0.9, 0.5, CH, seed=23, eps=0.1, trials=trials)
        mb, power = inner.message_bits, CH.power
        s = simulate_feedback(FeedbackConfig(inner=inner), keep_records=True)
        cb = build_codebook(inner)
        rotations = candidate_rotations(inner, cb, plan(inner))
        # All time-zero noises, in block order, from one generator.
        z0s = np.random.default_rng(derive_seed(inner.noise_seed, _Z0_STREAM_OFFSET)) \
            .standard_normal(trials) * math.sqrt(CH.noise_var)
        for i, (rec, z0, draws) in enumerate(zip(s.records, z0s.tolist(),
                                                contract_draws(inner, trials))):
            ref = run_trial(inner, cb, inner_message(z0, mb, power), *draws,
                            rotations=rotations)
            y0 = encode_time_zero(rec.message, mb, power) + z0
            m_hat = reconstruct(y0, ref.decoded, mb, power)
            ref = replace(ref, message=rec.message, decoded=m_hat, error=m_hat != rec.message,
                          noise_energy=ref.noise_energy + z0 * z0)
            assert_same_trial(rec, ref, i)
        assert len(s.records) == trials


def test_oversized_rotation_stack_fails_fast():
    # 2^12 rotations of 257 x 257, 4096 * 257^2 floats, just over the cap;
    # refused before allocating, and a sweep turns the refusal into a skipped cell
    cfg = replace(config_from_rates(257, 0.05, 0.0, CH, seed=1, trials=1), message_bits=12)
    assert plan(cfg).route == "stack"
    assert 4096 * 257 ** 2 > scheme.MAX_CODEBOOK_FLOATS >= 4096 * 256 ** 2
    with pytest.raises(CodebookSizeError, match="rotation stack"):
        simulate(cfg)
    assert isinstance(_run_cell_safe((cfg, False)), CodebookSizeError)


def test_grouped_codebooks_count_toward_the_size_cap(monkeypatch):
    # A cap between the stack's store, M n^2 floats and its parts' step
    # buffers and draws, and that plus the per-help-index codebooks, M n H:
    # the grouped cell is refused before any rotation is formed, and a sweep
    # skips it; with fewer than H n trials the cell scans the stack and fits.
    cfg = grouped_config(CHUNK_TRIALS)
    n, n_messages, help_size = 12, 1 << cfg.message_bits, 8
    (stack,) = [words for words, what in plan(replace(cfg, trials=help_size * n - 1)).storage
                if what.startswith("rotation stack")]
    monkeypatch.setattr(scheme, "MAX_CODEBOOK_FLOATS", stack + n_messages * n * help_size // 2)
    rotations = scheme.haar_rotations

    def refuse(*args):
        raise AssertionError("rotations formed before the size check")

    monkeypatch.setattr(scheme, "haar_rotations", refuse)
    with pytest.raises(CodebookSizeError, match="rotation stack"):
        simulate(cfg)
    assert isinstance(_run_cell_safe((cfg, False)), CodebookSizeError)
    monkeypatch.setattr(scheme, "haar_rotations", rotations)
    assert simulate(replace(cfg, trials=help_size * n - 1)).trials == help_size * n - 1


def test_grouped_chunk_rotations_count_toward_the_size_cap():
    # A grouped chunk copies its k rotations, (k, n, n): with two messages at
    # n = 1500, no helper and 1500 trials the stack fits but the copy, 128 *
    # 1500^2 floats, does not; the cell is refused and a sweep skips it.  The
    # exhaustive-decode benchmark's cell (2^12 messages at n = 12, 2^3 helper
    # points, grouped past 96 trials) still fits on two threads.
    cfg = replace(config_from_rates(1500, 0.0, 0.0, CH, seed=1, trials=1500), message_bits=1)
    run = plan(cfg)
    assert run.route == "grouped" and CHUNK_TRIALS * 1500 ** 2 > scheme.MAX_CODEBOOK_FLOATS
    with pytest.raises(CodebookSizeError,
                       match=r"^1 engine chunk\(s\) of 128 trials in dimension 1500 exceed"):
        run.admit()
    assert isinstance(_run_cell_safe((cfg, False)), CodebookSizeError)
    bench = config_from_rates(12, 1.0, 0.25, CH, seed=1, trials=10 ** 5)
    assert plan(bench, threads=2).admit().route == "grouped"


def test_trials_count_toward_the_size_cap(monkeypatch):
    # 200 trials of 74-bit messages, two 64-bit words each, count as
    # 200 * (3 * 2 + 11) = 3400 words.  Under a cap of 3399 the cognizant and
    # the feedback cell are refused before anything is drawn, and a sweep
    # skips them; under a cap of 3400 both run.  At n = 2 the engine chunk,
    # 4 * 128 * 2 floats, fits either cap.
    cfg = config_from_rates(2, 74 / 2, 0.5, CH, seed=17, eps=0.1, trials=200)
    assert cfg.message_bits == 74 and plan(cfg).route == "analytic"
    cells = (cfg, FeedbackConfig(inner=cfg))
    monkeypatch.setattr(scheme, "MAX_CODEBOOK_FLOATS", 3399)
    with pytest.MonkeyPatch.context() as mp:
        refuse_draws(mp)
        with pytest.raises(CodebookSizeError, match="^200 trials of 74-bit messages exceed"):
            simulate(cfg)
        with pytest.raises(CodebookSizeError, match="^200 trials of 74-bit messages exceed"):
            simulate_feedback(cells[1])
        for cell in cells:
            assert isinstance(_run_cell_safe((cell, False)), CodebookSizeError)
    monkeypatch.setattr(scheme, "MAX_CODEBOOK_FLOATS", 3400)
    assert [_run_cell_safe((cell, False)).trials for cell in cells] == [200, 200]


def refuse_draws(mp):
    """Make every draw of a cell's codebook, messages or time-zero noise fail the test."""
    def drawn(*args, **kwargs):
        raise AssertionError("the cell drew something")

    for name in ("build_codebook", "draw_messages"):
        mp.setattr(scheme, name, drawn)
    mp.setattr(feedback, "time_zero_noise", drawn)


@pytest.mark.parametrize("make, threads, chunk", [
    (analytic_config, 1, 4 * 128 * 16),  # one chunk of 128 trials at n = 16
    (analytic_config, 3, 2 * 4 * 128 * 16),  # 200 trials: 2 chunks in flight, not 3 + 1
    # 2^4 messages at n = 10 with 256 helper points: the stack scan, n^2 wide,
    # with a rotation stack and step buffers under the chunk's store
    (lambda trials: replace(exhaustive_config(trials), message_bits=4, helper_bits=8), 1,
     4 * 128 * 100),
])
def test_engine_chunks_count_toward_the_size_cap(monkeypatch, make, threads, chunk):
    # A chunk holds 4 float64 blocks of (k, n), (k, n^2) on the stack scan,
    # and a pool up to threads + 1 chunks.  Each chunk here is its own batch
    # (forced: one thread would take both chunks in one batch), which also
    # holds a float32 score tile of its 128 rows against 256 helper points
    # or messages, plus the runner-up copy of 16 rows: 144 * 256 / 2 words.
    # One word below them the cell is refused before anything is drawn, and
    # a sweep skips it; at them it runs.
    force_batch(monkeypatch, 1)
    cfg = make(200)
    n = cfg.blocklength
    in_flight = chunk // (4 * CHUNK_TRIALS * (n * n if plan(cfg).route == "stack" else n))
    chunk += in_flight * (CHUNK_TRIALS + CHUNK_TRIALS // 8) * 256 // 2
    monkeypatch.setattr(scheme, "THREAD_MIN_WORK", 0)
    monkeypatch.setattr(scheme, "MAX_CODEBOOK_FLOATS", chunk - 1)
    with pytest.MonkeyPatch.context() as mp:
        refuse_draws(mp)
        for run in (simulate, simulate_feedback):
            cell = cfg if run is simulate else FeedbackConfig(inner=cfg)
            with pytest.raises(CodebookSizeError, match=r"engine chunk\(s\) of 128 trials"):
                run(cell, threads=threads)
        assert isinstance(_run_cell_safe((cfg, False), threads), CodebookSizeError)
    monkeypatch.setattr(scheme, "MAX_CODEBOOK_FLOATS", chunk)
    assert simulate(cfg, threads=threads).trials == 200


def test_a_long_block_is_refused_for_its_chunks(monkeypatch):
    # R_h = 0 admits n = 2^23, whose 128-trial chunk would take about 32 GiB
    # (32 bytes per trial and dimension); no store but the chunk is too big.
    cfg = config_from_rates(1 << 23, 0.5, 0.0, CH, seed=5, eps=0.0, trials=128)
    run = plan(cfg)
    assert run.route == "analytic"
    assert [floats > scheme.MAX_CODEBOOK_FLOATS for floats, _ in run.storage] == [
        False, False, True]
    refuse_draws(monkeypatch)
    with pytest.raises(CodebookSizeError, match="^1 engine chunk.* dimension 8388608 exceed"):
        simulate(cfg)
    assert isinstance(_run_cell_safe((cfg, False)), CodebookSizeError)


def test_diagnostics_run_under_a_small_size_cap(monkeypatch):
    # The cap is the plan's largest store, a batch's diagnostics rotations
    # and its chunk's x and z, 8 k n words, the draw's two operand buffers
    # and 2 k n, with k = min(trials, 128) rows (one chunk per batch,
    # forced): the same at 200 and 2000 trials.  No trials x n array is kept,
    # so both run under it, and the profile from running sums matches the
    # one from the reference's vectors.
    force_batch(monkeypatch, 1)
    storage = plan(analytic_config(200), diagnostics=True).storage
    cap = max(words for words, _ in storage)
    assert cap == storage[-1][0] == 10 * CHUNK_TRIALS * 16 + 2 * np.getbufsize()
    monkeypatch.setattr(scheme, "MAX_CODEBOOK_FLOATS", cap)
    for trials in (200, 2000):
        cfg = analytic_config(trials)
        s = simulate(cfg, keep_records=True, diagnostics=True)
        cb = build_codebook(cfg)
        pairs = [run_trial(cfg, cb, rec.message, *draws, return_vectors=True)[1:]
                 for rec, draws in zip(s.records, contract_draws(cfg, trials))]
        want = empirical_correlations(pairs)
        assert s.corr_profile.trials == want.trials == trials
        assert np.allclose(s.corr_profile.per_index_rho, want.per_index_rho, rtol=0, atol=1e-12)


def test_diagnostics_rotations_count_toward_the_size_cap(monkeypatch, caplog):
    # One word below a chunk's diagnostics rotations the cell is refused
    # before any rotation is formed, and a sweep skips it; without
    # diagnostics it runs.  Each batch holds one chunk (forced).
    force_batch(monkeypatch, 1)
    cfg = analytic_config(200)
    words, _ = plan(cfg, diagnostics=True).storage[-1]
    monkeypatch.setattr(scheme, "MAX_CODEBOOK_FLOATS", words - 1)

    def refuse(*args):
        raise AssertionError("rotations formed or applied before the size check")

    monkeypatch.setattr(scheme, "haar_rotations", refuse)
    monkeypatch.setattr(HelperCodebook, "rotate", refuse)
    with pytest.raises(CodebookSizeError,
                       match="^diagnostics rotations of 128 trials in dimension 16 exceed"):
        simulate(cfg, diagnostics=True)
    assert isinstance(_run_cell_safe((cfg, True)), CodebookSizeError)
    spec = SweepSpec(snr=(3.0,), helper_rate=(0.5,), blocklength=(16,), rate_fraction=(0.5,),
                     trials=200, base_seed=1, diagnostics=True)
    with caplog.at_level("WARNING"):
        assert run_sweep(spec, workers=1) == []
    (skip,) = [rec.message for rec in caplog.records if "skipped" in rec.message]
    assert "CodebookSizeError: diagnostics rotations of 128 trials" in skip
    assert simulate(cfg).trials == 200


def test_a_long_block_is_admitted_with_diagnostics():
    # A whole chunk's rotations at n = 725, 4 * 128 * 725^2 floats in the
    # formed-Q store, exceeded the cap; applying the reflectors a step at a
    # time holds 8 n words per row and the draw's two operand buffers, plus
    # the chunk's x and z.
    cfg = config_from_rates(725, 0.5, 0.0, CH, seed=5, eps=0.0, trials=128)
    assert 4 * CHUNK_TRIALS * 725 ** 2 > scheme.MAX_CODEBOOK_FLOATS
    run = plan(cfg, diagnostics=True).admit()
    assert run.storage[-1] == (10 * CHUNK_TRIALS * 725 + 2 * np.getbufsize(),
                               "diagnostics rotations of 128 trials in dimension 725 exceed")


@pytest.mark.parametrize("n, batch", [(8, 8), (16, 4), (32, 2), (128, 1), (256, 1)])
def test_rotate_lies_within_the_diagnostics_store(monkeypatch, n, batch):
    # What HelperCodebook.rotate adds to the traced peak, rotating a batch's
    # b_t and w (as the engine does) into x and z, lies between half of the
    # diagnostics store and that store, on one thread.  The batches hold at
    # least 2^13 / n rows: below 2^12 / n the draw's operand buffers are
    # smaller than the np.getbufsize() elements counted for them.
    force_batch(monkeypatch, batch)
    rows = batch * CHUNK_TRIALS
    cfg = config_from_rates(n, 2.0, 0.0, CH, seed=5, eps=0.0, trials=rows)
    run = plan(cfg, diagnostics=True, threads=1)
    store, what = run.storage[-1]
    assert run.route == "analytic" and what.startswith(f"diagnostics rotations of {rows} trials")
    cb = build_codebook(cfg)
    messages = scheme.draw_messages(cfg)
    vectors = np.random.default_rng(n).standard_normal((rows, 2, n))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cb.rotate(messages, vectors)
        traced = (tracemalloc.get_traced_memory()[1] - before) / 8
    finally:
        tracemalloc.stop()
    assert store / 2 <= traced <= store


def diagnostics_extra_peak(cfg, threads=None):
    """Traced peak of simulate(cfg) with diagnostics less the one without, in bytes."""
    peaks = []
    for diagnostics in (True, False):
        tracemalloc.start()
        try:
            simulate(cfg, diagnostics=diagnostics, threads=threads)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks[0] - peaks[1]


def batch_cell(name, trials):
    """A cell of each route with the batch size plan picks for it on one thread."""
    if name in ("analytic n=16", "analytic n=24"):  # 2^8 and 2^12 helper points
        return criterion5_config(int(name[-2:]), trials)
    # 2^12 messages, with 2^3 helper points at n = 12 or 2^8 at n = 16
    n, helper_rate = (12, 0.25) if name == "grouped" else (16, 0.5)
    cfg = config_from_rates(n, 0.75 * 16 / n, helper_rate, CH, seed=26, trials=trials)
    assert (cfg.message_bits, plan(cfg).route) == (12, name)
    return cfg


def batch_stores(cfg, diagnostics, batch=None):
    """Words of plan(cfg)'s engine and diagnostics stores, with `batch` chunks per batch if given."""
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:
            force_batch(mp, batch)
        return sum(words for words, what in plan(cfg, diagnostics).storage
                   if "engine" in what or "diagnostics" in what)


def traced_peak(cfg, diagnostics, batch):
    with pytest.MonkeyPatch.context() as mp:
        force_batch(mp, batch)
        messages = scheme.draw_messages(cfg)
        tracemalloc.start()
        try:
            scheme.run_trials(cfg, messages, CorrelationSums() if diagnostics else None, threads=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("diagnostics", [False, True])
@pytest.mark.parametrize("name, batch", [("analytic n=16", 8), ("analytic n=32", 8), ("stack", 4)])
def test_batches_count_toward_the_size_cap(monkeypatch, name, batch, diagnostics):
    # plan counts the B chunks of a batch in flight: the engine chunks' store,
    # with the batch's float32 score tile and runner-up copy, and the
    # diagnostics' x, z and reflector steps over the batch's rows.  What
    # batching adds to the traced peak of a run is at least half of what plan
    # adds and at most that: B chunks against 2^8 points fill a tile of
    # TILE_FLOATS scores, one chunk 2^15.
    trials = 2 * batch * CHUNK_TRIALS + 3
    if name == "analytic n=32":  # 2^8 helper points
        cfg = config_from_rates(32, 1.2, 0.25, CH, seed=31, eps=0.1, trials=trials)
    else:
        cfg = batch_cell(name, trials)
    assert plan(cfg).batch == batch
    added = 8 * (batch_stores(cfg, diagnostics) - batch_stores(cfg, diagnostics, batch=1))
    traced = traced_peak(cfg, diagnostics, batch) - traced_peak(cfg, diagnostics, 1)
    assert added / 2 <= traced <= added
    if name == "stack":
        return  # its rotation stack, M n^2 words, outgrows any batch (B k n^2 <= TILE_FLOATS)
    # Under a cap one word below the batch's chunks, which one chunk fits, the
    # cell is refused before anything is drawn.
    (chunk,) = [words for words, what in plan(cfg, diagnostics).storage if "engine" in what]
    monkeypatch.setattr(scheme, "MAX_CODEBOOK_FLOATS", chunk - 1)
    assert batch_stores(cfg, False, batch=1) < chunk - 1
    refuse_draws(monkeypatch)
    with pytest.raises(CodebookSizeError, match=rf"^{batch} engine chunk\(s\) of 128 trials"):
        simulate(cfg, diagnostics=diagnostics)


@pytest.mark.parametrize("n, helper_bits, route", [(96, 0, "grouped"), (64, 7, "stack")])
def test_scan_diagnostics_store_is_the_chunks_x_and_z(n, helper_bits, route):
    # A scan reads R_m off the candidate stack and applies no reflectors,
    # so diagnostics add only the chunk's x and z, 2 k n words: no more than
    # the chunk's own store, and (with 16 messages, one thread and 128
    # trials) within 5% of the traced growth of the peak.
    cfg = replace(config_from_rates(n, 0.05, helper_bits / n, CH, seed=3, trials=CHUNK_TRIALS),
                  message_bits=4)
    run = plan(cfg, diagnostics=True, threads=1)
    (chunk, _), (diagnostics, what) = run.storage[-2:]
    assert run.route == route and what.startswith("diagnostics")
    assert diagnostics == 2 * CHUNK_TRIALS * n <= chunk
    assert diagnostics_extra_peak(cfg, threads=1) / 8 == pytest.approx(diagnostics, rel=0.05)


def test_diagnostics_memory_does_not_grow_with_trials():
    # The extra peak that diagnostics add (a batch's rotations and vectors)
    # follows the batch's rows, which plan caps, not the trials: 8192 trials
    # get batches of 8 chunks where 512 get 4, 0.53 to 0.54 MB more; one
    # stored trials x n array would add 8 * 7680 * 32 bytes, about 2 MB.
    n, few, many = 32, 512, 8192

    def extra_peak(trials):
        return diagnostics_extra_peak(
            config_from_rates(n, 1.2, 0.25, CH, seed=31, eps=0.1, trials=trials))

    assert extra_peak(many) - extra_peak(few) < 8 * (many - few) * n / 2


@pytest.mark.parametrize("n, trials, corr_sum", [
    (128, 1024, "0.129943067"), (256, 256, "1.15072263")])
def test_long_block_diagnostics_end_to_end(monkeypatch, n, trials, corr_sum):
    # Diagnostics at R_h = 0, SNR 1 and rate 0.3, where a message's draw has
    # n(n+1)/2 normals, from start to finish: the sum of squared correlations
    # to the 9 significant digits the CSV writes, and every summary field the
    # same on one thread and, with the gate lowered, two.
    monkeypatch.setattr(scheme, "THREAD_MIN_WORK", 0)
    cfg = config_from_rates(n, 0.3, 0.0, ChannelParams.from_snr(1.0), seed=1, eps=0.0,
                            trials=trials)
    assert plan(cfg).route == "analytic" and plan(cfg, threads=2).threads == 2
    runs = [simulate(cfg, keep_records=True, diagnostics=True, threads=threads)
            for threads in (1, 2)]
    assert "%.9g" % runs[0].corr_sum == corr_sum
    assert summary_bits(runs[0]) == summary_bits(runs[1])


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_sweep_csv(tmp_path, workers):
    """`gausshelp sweep --repro` on a cognizant and a feedback grid, byte for byte."""
    out = io.BytesIO()
    for grid in ("golden_cognizant.conf", "golden_feedback.conf"):
        path = tmp_path / f"{grid}.csv"
        assert cli(["sweep", "--config", str(DATA / grid), "--out", str(path),
                    "--repro", "--workers", str(workers)]) == 0
        out.write(path.read_bytes())
    assert out.getvalue() == (DATA / "golden_sweep.csv").read_bytes()


def feedback_config(trials):
    return FeedbackConfig(inner=config_from_rates(12, 0.9, 0.5, CH, seed=23, eps=0.1,
                                                  trials=trials))


def bits(value):
    """A value's exact bit pattern: floats and arrays as bytes, the rest as is."""
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


def summary_bits(s):
    fields = {f.name: bits(getattr(s, f.name)) for f in dataclasses.fields(s)
              if f.name not in ("wall_time_s", "records", "corr_profile")}
    records = [tuple(bits(v) for v in dataclasses.astuple(r)) for r in s.records]
    rho = None if s.corr_profile is None else bits(s.corr_profile.per_index_rho)
    return fields, records, rho


def columns_bits(cols):
    return {f.name: bits(getattr(cols, f.name)) for f in dataclasses.fields(cols)}


# The engine's thread gate; the threading tests below lower it to 0 so that
# their small cells run threaded.
MIN_WORK = scheme.THREAD_MIN_WORK


def record_engine_threads(monkeypatch):
    """The thread count each run_trials call hands _in_order, in call order."""
    used, in_order = [], scheme._in_order

    def recording(fn, items, threads, take):
        used.append(threads)
        in_order(fn, items, threads, take)

    monkeypatch.setattr(scheme, "_in_order", recording)
    return used


def criterion5_config(n, trials):
    rate = 0.7 * achievable_rate_threshold(CH, 0.5, 0.1)
    return config_from_rates(n, rate, 0.5, CH, seed=1, eps=0.1, trials=trials)


@pytest.mark.parametrize("name, batch", [
    ("analytic n=16", 8), ("analytic n=24", 4), ("grouped", 4), ("stack", 4)])
def test_batches_leave_columns_and_sums_bitwise(monkeypatch, name, batch):
    # One batch of B chunks searches, scans and rotates its rows together;
    # no row's result depends on the rows beside it, so the columns and the
    # running sums are bitwise those of one chunk per batch.  Plan picks B
    # from the cell.
    cfg = batch_cell(name, 2 * batch * CHUNK_TRIALS + 3)
    assert plan(cfg, threads=1).batch == batch
    messages = scheme.draw_messages(cfg)

    def run(b):
        force_batch(monkeypatch, b)
        sums = CorrelationSums()
        cols = scheme.run_trials(cfg, messages, sums, threads=1)
        return columns_bits(cols), sums.sums.tobytes()

    want = run(1)
    assert run(2) == want
    assert run(batch) == want


def tile_rule(cfg):
    """Chunks per batch that cfg's search tile allows.

    TILE_FLOATS over 128 rows of the wider of the query (n, n^2 on the stack
    scan) and min(codebook rows searched, BATCH_MIN_COLUMNS).
    """
    n, route = cfg.blocklength, plan(cfg, threads=1).route
    width = n * n if route == "stack" else n
    searched = max(1 << cfg.helper_bits, 0 if route == "analytic" else 1 << cfg.message_bits)
    return search.TILE_FLOATS // (CHUNK_TRIALS * max(width, min(searched, scheme.BATCH_MIN_COLUMNS)))


def feedback_sweep_cells():
    """The inner configs of the benchmark's feedback-sweep grid: 300 trials, 3 chunks each."""
    spec = SweepSpec(snr=(1.0, 3.0), helper_rate=(0.5,), blocklength=(8, 12, 16),
                     rate_fraction=(0.4, 0.7), trials=300, base_seed=1, scheme="feedback")
    return [harness.cell_config(spec, i_snr, 0, i_n, i_frac).inner
            for i_snr in range(2) for i_n in range(3) for i_frac in range(2)]


@pytest.mark.parametrize("name", ["feedback-sweep", "exhaustive-decode"])
def test_one_thread_batches_up_to_the_tile(name):
    # On one thread the batch is capped by its search tile and the run's
    # chunks alone: a 300-trial sweep cell runs in one batch of 3 chunks,
    # and the 1500-trial exhaustive-decode cell (12 chunks) in batches of 4.
    if name == "feedback-sweep":
        cells, chunks, batch = feedback_sweep_cells(), 3, 3
    else:
        cells, chunks, batch = [config_from_rates(12, 1.0, 0.25, CH, seed=1, trials=1500)], 12, 4
    for cfg in cells:
        assert -(-cfg.trials // CHUNK_TRIALS) == chunks
        assert plan(cfg, threads=1).batch == min(chunks, tile_rule(cfg)) == batch


@pytest.mark.parametrize("threads", [2, 3, 4])
def test_a_pool_keeps_a_batch_per_thread(threads):
    # A gated cell (criterion-5 n = 24, 2^12 * 24 per trial) on a pool gets
    # the largest batch that still leaves every thread a batch of its own.
    for chunks in range(2, 10):
        cfg = criterion5_config(24, chunks * CHUNK_TRIALS)
        run = plan(cfg, threads=threads)
        assert run.threads == threads
        assert -(-chunks // run.batch) >= min(threads, chunks)
        assert run.batch == max(1, min(chunks // threads, tile_rule(cfg)))


@pytest.mark.parametrize("trials", [2048, 10_000])
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n, batch", [(16, 8), (24, 4), (32, 4)])
def test_the_criterion_5_batches(n, batch, threads, trials):
    # The criterion-5 cells' batches, with and without diagnostics: their
    # tiles cap n = 24 and 32 at 4 chunks on every thread count, and n = 16,
    # below the thread gate, runs on one thread in batches of 8.
    cfg = criterion5_config(n, trials)
    assert {plan(cfg, diagnostics, threads=threads).batch for diagnostics in (False, True)} == {batch}


@pytest.mark.parametrize("n, diagnostics, threads", [
    (16, False, 1),  # 2^8 * 16 per trial
    (24, False, 2),  # 2^12 * 24
    (24, True, 2),  # 2^12 * 24: the diagnostics' 24^3 leaves the gate alone
])
def test_the_thread_gate_on_the_criterion_5_cells(monkeypatch, n, diagnostics, threads):
    # The gate compares a trial's helper search with THREAD_MIN_WORK.
    cfg = criterion5_config(n, 2 * CHUNK_TRIALS)
    assert plan(cfg, diagnostics, threads=2).threads == threads
    used = record_engine_threads(monkeypatch)
    simulate(cfg, diagnostics=diagnostics, threads=2)
    assert used == [threads]


class TestEngineThreads:
    """Batches of chunks on 1, 2 or 3 threads give bitwise the same results."""

    @pytest.fixture(autouse=True)
    def thread_small_cells(self, monkeypatch):
        monkeypatch.setattr(scheme, "THREAD_MIN_WORK", 0)

    @pytest.mark.parametrize("trials", THREADED_TRIALS)
    def test_results_do_not_depend_on_the_thread_count(self, monkeypatch, trials):
        def run_all(threads, batch):
            force_batch(monkeypatch, batch)
            cfg, exh = analytic_config(trials), exhaustive_config(trials)
            sums = CorrelationSums()
            cols = scheme.run_trials(cfg, scheme.draw_messages(cfg), sums if trials > 1 else None,
                                     threads=threads)
            return (columns_bits(cols), sums.sums if trials > 1 else None,
                    summary_bits(simulate(cfg, keep_records=True, diagnostics=trials > 1,
                                          threads=threads)),
                    summary_bits(simulate(exh, keep_records=True, threads=threads)),
                    summary_bits(simulate(grouped_config(trials), keep_records=True,
                                          diagnostics=trials > 1, threads=threads)),
                    summary_bits(simulate_feedback(feedback_config(trials), keep_records=True,
                                                   threads=threads)))

        # One chunk or BATCH chunks per batch.
        runs = {(threads, batch): run_all(threads, batch)
                for threads in (1, 2, 3) for batch in (1, BATCH)}
        for key in runs:
            cols, sums, *summaries = runs[key]
            want_cols, want_sums, *want_summaries = runs[1, 1]
            assert cols == want_cols
            if trials > 1:
                assert sums.tobytes() == want_sums.tobytes()
            assert summaries == want_summaries

    def test_threads_none_follows_the_workers_variable(self, monkeypatch):
        # The CI's GAUSSHELP_WORKERS=1 step reaches the serial loop this way.
        used = record_engine_threads(monkeypatch)
        cfg = analytic_config(3 * CHUNK_TRIALS)
        for raw in ("3", "1"):
            monkeypatch.setenv(WORKERS_ENV, raw)
            simulate(cfg)
        simulate(cfg, threads=2)  # an argument takes the place of the variable
        assert used == [3, 1, 2]

    def test_concurrent_runs_on_different_thread_counts(self, monkeypatch):
        # Two Python threads run simulate at once, on 1 and on 2 engine
        # threads: each run keeps its own count and gets the serial result.
        cfg = analytic_config(5 * CHUNK_TRIALS + 3)
        want = summary_bits(simulate(cfg, keep_records=True, diagnostics=True, threads=1))
        used, got = record_engine_threads(monkeypatch), {}
        barrier = threading.Barrier(2)

        def run(threads):
            barrier.wait()
            got[threads] = summary_bits(simulate(cfg, keep_records=True, diagnostics=True,
                                                 threads=threads))

        runners = [threading.Thread(target=run, args=(threads,)) for threads in (1, 2)]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join()
        assert sorted(used) == [1, 2]
        assert got == {1: want, 2: want}

    def test_more_threads_than_cores_with_a_short_switch_interval(self):
        # 8 threads switching every microsecond over 10 chunks that write into
        # the shared columns: a lost or misplaced row would change a column.
        cfg = exhaustive_config(10 * CHUNK_TRIALS - 7)
        messages = scheme.draw_messages(cfg)

        def run(threads):
            sums = CorrelationSums()
            cols = scheme.run_trials(cfg, messages, sums, threads)
            return columns_bits(cols), sums.sums.tobytes()

        want = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.monotonic()
            got = run(8)
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert time.monotonic() - started < 60

    def test_results_are_taken_in_chunk_order_on_the_calling_thread(self, monkeypatch):
        # The first batch is held back, so later batches finish before it; the
        # running sums must still see the chunks in order, a chunk at a time,
        # from this thread.
        force_batch(monkeypatch, BATCH)
        cfg = analytic_config(4 * CHUNK_TRIALS + 5)
        messages = scheme.draw_messages(cfg)
        derive_seed = scheme.derive_seed

        def slow_first(base, chunk):  # seeds chunk 0's noise generator
            if chunk == 0:
                time.sleep(0.2)
            return derive_seed(base, chunk)

        def record(threads):
            added = []
            add = CorrelationSums.add

            def recording_add(self, xs, zs):
                added.append((threading.get_ident(), xs.tobytes(), zs.tobytes()))
                add(self, xs, zs)

            monkeypatch.setattr(CorrelationSums, "add", recording_add)
            cols = scheme.run_trials(cfg, messages, CorrelationSums(), threads)
            monkeypatch.setattr(CorrelationSums, "add", add)
            return added, cols.decoded

        monkeypatch.setattr(scheme, "derive_seed", slow_first)
        serial, decoded = record(1)
        assert [len(a[1]) // (16 * 8) for a in serial] == [CHUNK_TRIALS] * 4 + [5]
        me = threading.get_ident()
        for threads in (2, 3):
            added, threaded_decoded = record(threads)
            assert [a[0] for a in added] == [me] * len(serial)
            assert [a[1:] for a in added] == [a[1:] for a in serial]
            assert threaded_decoded == decoded

    @pytest.mark.parametrize("threads", [2, 3])
    def test_a_failing_chunk_propagates_and_leaves_no_thread(self, monkeypatch, threads):
        # Chunk 3 of 10, the first of batch 2 of 5, raises on its thread: the
        # error comes out unchanged, the batches not yet started are cancelled
        # (at most threads + 1 were in flight), and the pool's threads are
        # gone when run_trials returns.
        force_batch(monkeypatch, BATCH)
        cfg = analytic_config(10 * CHUNK_TRIALS)
        derive_seed = scheme.derive_seed
        calls = []

        def failing(base, chunk):  # seeds each chunk's noise generator
            calls.append(chunk)
            if chunk == 2:
                raise RuntimeError("chunk 3 failed")
            return derive_seed(base, chunk)

        monkeypatch.setattr(scheme, "derive_seed", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^chunk 3 failed$"):
            simulate(cfg, diagnostics=True, threads=threads)
        assert threading.active_count() == before
        assert 3 <= len(calls) and len({chunk // BATCH for chunk in calls}) <= 2 + threads

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_in_order_bounds_the_calls_in_flight(self, threads):
        lock = threading.Lock()
        started, taken, peak = [], [], [0]

        def fn(item):
            with lock:
                started.append(item)
                peak[0] = max(peak[0], len(started) - len(taken))
            time.sleep(0.002 * (item % 3))
            return item * item

        scheme._in_order(fn, range(20), threads, taken.append)
        assert taken == [i * i for i in range(20)]
        assert peak[0] <= threads + 1

    def test_pool_only_for_several_chunks_threads_and_enough_work(self, monkeypatch):
        pools = []
        pool = scheme.ThreadPoolExecutor

        def counting_pool(*args):
            pools.append(args)
            return pool(*args)

        monkeypatch.setattr(scheme, "ThreadPoolExecutor", counting_pool)
        simulate(analytic_config(CHUNK_TRIALS), diagnostics=True, threads=4)  # one chunk
        simulate(analytic_config(3 * CHUNK_TRIALS), diagnostics=True, threads=1)  # one thread
        assert pools == []
        # The real gate on a trial's helper search, 2^helper_bits * n: 2^8 * 16
        # (with diagnostics) and 2^5 * 10 run serially, 2^14 * 28 on threads.
        monkeypatch.setattr(scheme, "THREAD_MIN_WORK", MIN_WORK)
        simulate(analytic_config(3 * CHUNK_TRIALS), diagnostics=True, threads=4)
        simulate(exhaustive_config(3 * CHUNK_TRIALS), threads=4)
        assert pools == []
        wide = config_from_rates(28, 1.2, 0.5, CH, seed=24, eps=0.1, trials=2 * CHUNK_TRIALS)
        simulate(wide, threads=4)
        assert pools == [(2,)]  # two chunks on min(4, 2) threads
        # A pool item is a batch: two chunks in one batch build no pool,
        # three in two batches do.
        force_batch(monkeypatch, BATCH)
        simulate(wide, threads=4)
        assert pools == [(2,)]
        simulate(replace(wide, trials=3 * CHUNK_TRIALS), threads=4)
        assert pools == [(2,), (2,)]

    def test_threaded_diagnostics_memory_does_not_grow_with_trials(self, monkeypatch):
        # As test_diagnostics_memory_does_not_grow_with_trials, on 2 threads
        # and in batches of 4 chunks (the criterion-5 cells'): each batch
        # applies its rotations on its own thread, a reflector step at a
        # time, and at most threads + 1 batches are in flight, so the threads
        # add no store that grows with the trials.  Both counts span several
        # batches on every thread, so they hold the same batches in flight.
        force_batch(monkeypatch, 4)
        n, few = 32, 3 * 2 * 4 * CHUNK_TRIALS
        many = few + 7680

        def extra_peak(trials):
            return diagnostics_extra_peak(
                config_from_rates(n, 1.2, 0.25, CH, seed=31, eps=0.1, trials=trials), threads=2)

        assert extra_peak(many) - extra_peak(few) < 8 * (many - few) * n / 2


def stack_cell(n, bits):
    """A stack-scan cell of 2^bits messages in dimension n, with one trial."""
    cfg = replace(config_from_rates(n, 0.5, 0.0, CH, seed=27, trials=1), message_bits=bits)
    assert plan(cfg).route == "stack"
    return cfg


class TestCandidateStack:
    """The rotation stack, built in the parts its plan holds, one per thread."""

    @pytest.mark.parametrize("n, bits", [
        (2, 12),  # 4096 messages, under one slice of 2^14
        (8, 10), (16, 8), (32, 6),  # exactly one slice
        (12, 12),  # 4096 messages in slices of 455: nine and one of a single message
        (16, 10), (32, 8),  # four slices
    ])
    def test_stack_is_bitwise_each_messages_rotation(self, n, bits):
        cfg = stack_cell(n, bits)
        cb = build_codebook(cfg)
        want = np.stack([cb.rotation(m) for m in range(1 << bits)]).tobytes()
        for threads in (1, 2, 3):
            stack = candidate_rotations(cfg, cb, plan(cfg, threads=threads))
            assert stack.tobytes() == want, threads

    def test_one_thread_or_one_slice_builds_no_pool(self, monkeypatch):
        pools, pool = [], scheme.ThreadPoolExecutor

        def no_pool(*args):
            raise AssertionError("a pool was built")

        def counting_pool(*args):
            pools.append(args)
            return pool(*args)

        cfg, one_slice = stack_cell(12, 12), stack_cell(16, 8)
        monkeypatch.setattr(scheme, "ThreadPoolExecutor", no_pool)
        candidate_rotations(cfg, build_codebook(cfg), plan(cfg, threads=1))
        scheme.run_trials(cfg, threads=1)
        candidate_rotations(one_slice, build_codebook(one_slice), plan(one_slice, threads=4))
        # Ten slices on four threads: four parts of three slices of 342.
        monkeypatch.setattr(scheme, "ThreadPoolExecutor", counting_pool)
        assert scheme._stack_parts(1 << 12, 12, 4) == (3 * 342, 342)
        assert plan(cfg, threads=4).parts == (3 * 342, 342)
        candidate_rotations(cfg, build_codebook(cfg), plan(cfg, threads=4))
        assert pools == [(4,)]

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    @pytest.mark.parametrize("n, bits", [(12, 12), (16, 10), (32, 8), (16, 8)])
    def test_the_stack_is_built_in_the_plans_parts(self, monkeypatch, n, bits, threads):
        # candidate_rotations hands _in_order exactly the parts `run` carries
        # and forms each part's slices `width` messages at a time; it plans
        # nothing of its own.  n = 12's ten slices are uneven on three and
        # four threads: they round up to twelve, in parts of four or three.
        cfg, n_messages = stack_cell(n, bits), 1 << bits
        cb, run = build_codebook(cfg), plan(cfg, threads=threads)
        span, width = run.parts
        if (n, threads) == (12, 4):
            assert run.parts == (3 * 342, 342)
        handed, slices = [], []
        in_order, rotations = scheme._in_order, scheme.haar_rotations

        def recording(fn, items, count, take):
            handed.append(([lo for lo, _ in items], count, {b.size for _, work in items
                                                            for b in work}))
            in_order(fn, items, count, take)

        def recording_slices(n, seeds, out, work):
            slices.append(len(seeds))
            return rotations(n, seeds, out, work)

        def planned(*args, **kwargs):
            raise AssertionError("candidate_rotations planned its stack again")

        monkeypatch.setattr(scheme, "_in_order", recording)
        monkeypatch.setattr(scheme, "haar_rotations", recording_slices)
        for name in ("plan", "_stack_parts", "resolve_workers"):
            monkeypatch.setattr(scheme, name, planned)
        candidate_rotations(cfg, cb, run)
        los = list(range(0, n_messages, span))
        assert handed == [(los, len(los), {n * n * width})]
        assert len(los) == min(threads, -(-n_messages // width))
        assert sorted(slices) == sorted(min(s + width, n_messages) - s
                                        for s in range(0, n_messages, width))

    @pytest.mark.parametrize("threads", [2, 3])
    def test_a_failing_part_propagates_and_leaves_no_thread(self, monkeypatch, threads):
        cfg = stack_cell(12, 12)
        cb = build_codebook(cfg)
        first = {int(seed): m for m, seed in
                 enumerate(derive_seeds(cb.rotation_seed_base, range(1 << 12)))}
        rotations, started = scheme.haar_rotations, []

        def failing(n, seeds, *args):
            start = first[int(seeds[0])]
            started.append(start)
            if start >= 1 << 11:  # the last part's slices
                raise RuntimeError("the last part failed")
            return rotations(n, seeds, *args)

        monkeypatch.setattr(scheme, "haar_rotations", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^the last part failed$"):
            candidate_rotations(cfg, cb, plan(cfg, threads=threads))
        assert threading.active_count() == before
        assert started and 0 in started

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n, bits", [(12, 12), (32, 9)])
    def test_parts_count_toward_the_size_cap(self, monkeypatch, n, bits, threads):
        # The stack's store adds, per part in flight, its three step buffers
        # and its slice's draw: the traced peak of the build, less the stack
        # itself, lies between half of that and that.  One word below the
        # store the cell is refused before any rotation is formed.
        cfg = stack_cell(n, bits)
        cb, stack, run = build_codebook(cfg), (1 << bits) * n * n, plan(cfg, threads=threads)
        (store,) = [words for words, what in run.storage if what.startswith("rotation stack")]
        tracemalloc.start()
        try:
            candidate_rotations(cfg, cb, run)
            traced = tracemalloc.get_traced_memory()[1] / 8 - stack
        finally:
            tracemalloc.stop()
        assert (store - stack) / 2 <= traced <= store - stack
        monkeypatch.setattr(scheme, "MAX_CODEBOOK_FLOATS", store - 1)

        def formed(*args):
            raise AssertionError("a rotation was formed")

        monkeypatch.setattr(scheme, "haar_rotations", formed)
        with pytest.raises(CodebookSizeError,
                           match=rf"^rotation stack of {1 << bits} {n}x{n} matrices exceeds"):
            scheme.run_trials(cfg, threads=threads)


class TestThePlanIsTheRun:
    """Each run is planned once, and its thread count is checked there."""

    def test_a_run_makes_one_plan(self, monkeypatch):
        # An exhaustive simulate plans once, in run_trials; simulate_feedback
        # twice: its early admission and the inner run.
        calls, planned = [], scheme.plan

        def counting(*args, **kwargs):
            calls.append(args[0])
            return planned(*args, **kwargs)

        monkeypatch.setattr(scheme, "plan", counting)
        monkeypatch.setattr(feedback, "plan", counting)
        cfg = exhaustive_config(3 * CHUNK_TRIALS)
        simulate(cfg)
        assert calls == [cfg]
        calls.clear()
        cell = feedback_config(3 * CHUNK_TRIALS)
        simulate_feedback(cell)
        assert calls == [cell.inner, cell.inner]

    # The cell that once ran on a bad count: 2^12 messages at n = 12, decoded
    # against the uninitialised stack when the count was negative.
    CELL = config_from_rates(12, 1.0, 0.25, CH, 1, trials=300)

    @pytest.mark.parametrize("threads", [0, -1, 2.5])
    @pytest.mark.parametrize("entry", ["simulate", "simulate_feedback", "run_trials",
                                       "run_sweep"])
    def test_a_bad_count_is_refused_before_any_draw(self, monkeypatch, entry, threads):
        # threads=-1 once gave 284 errors on simulate where threads=1 gives
        # 13, 288 on simulate_feedback where it gives 20, and run_sweep's
        # workers=-1 gave [124, 200] for [124, 4]; 0 meant the default.
        spec = SweepSpec(snr=(3.0,), helper_rate=(0.25,), blocklength=(12,),
                         rate_fraction=(0.9, 0.5), trials=300, base_seed=1)
        assert plan(self.CELL).route == "grouped"
        refuse_draws(monkeypatch)

        def built(*args, **kwargs):
            raise AssertionError("a cell was built")

        monkeypatch.setattr(harness, "cell_config", built)
        runs = {"simulate": lambda: simulate(self.CELL, threads=threads),
                "simulate_feedback": lambda: simulate_feedback(FeedbackConfig(inner=self.CELL),
                                                               threads=threads),
                "run_trials": lambda: scheme.run_trials(self.CELL, threads=threads),
                "run_sweep": lambda: run_sweep(spec, workers=threads)}
        with pytest.raises(ValueError,
                           match=rf"^worker count must be an integer >= 1, got {threads!r}$"):
            runs[entry]()

    def test_none_and_explicit_counts_give_the_serial_result(self, monkeypatch):
        # Bitwise the one-thread result, from None and from 1 to 3 threads,
        # on the cell above and its feedback twin; the gate is lowered so
        # that the batches, not only the stack, run on the threads.
        monkeypatch.setattr(scheme, "THREAD_MIN_WORK", 0)
        monkeypatch.setenv(WORKERS_ENV, "2")
        cell = FeedbackConfig(inner=self.CELL)
        runs = {threads: (summary_bits(simulate(self.CELL, keep_records=True, diagnostics=True,
                                                threads=threads)),
                          summary_bits(simulate_feedback(cell, keep_records=True,
                                                         threads=threads)))
                for threads in (None, 1, 2, 3)}
        assert runs[1][0][0]["errors"] == bits(13)
        assert all(run == runs[1] for run in runs.values())
