"""The chunked trial engine against the per-trial reference, and its pinned output.

The replay rebuilds every trial's draws from stream contract 4 as the scheme
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

from gausshelp import feedback, scheme, search
from gausshelp.capacity import ChannelParams
from gausshelp.cli import cli
from gausshelp.codebook import CodebookSizeError, HelperCodebook, derive_seed, reflector_slice
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


def contract_draws(cfg, trials):
    """Each trial's (w, uniforms, generator) under stream contract 4, in trial order.

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
        rotations = candidate_rotations(cfg, cb)
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

    @pytest.mark.parametrize("trials", EDGE_TRIALS)
    def test_feedback(self, trials):
        inner = config_from_rates(12, 0.9, 0.5, CH, seed=23, eps=0.1, trials=trials)
        mb, power = inner.message_bits, CH.power
        s = simulate_feedback(FeedbackConfig(inner=inner), keep_records=True)
        cb = build_codebook(inner)
        rotations = candidate_rotations(inner, cb)
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
    # A cap between the stack alone, M n^2 floats, and the stack plus the
    # per-help-index codebooks, M n (n + H): the grouped cell is refused
    # before any rotation is formed, and a sweep skips it; with fewer than
    # H n trials the cell scans the stack and fits.
    cfg = grouped_config(CHUNK_TRIALS)
    n, n_messages, help_size = 12, 1 << cfg.message_bits, 8
    monkeypatch.setattr(scheme, "MAX_CODEBOOK_FLOATS", n_messages * n * (n + help_size // 2))
    rotations = HelperCodebook.rotations

    def refuse(*args):
        raise AssertionError("rotations formed before the size check")

    monkeypatch.setattr(HelperCodebook, "rotations", refuse)
    with pytest.raises(CodebookSizeError, match="rotation stack"):
        simulate(cfg)
    assert isinstance(_run_cell_safe((cfg, False)), CodebookSizeError)
    monkeypatch.setattr(HelperCodebook, "rotations", rotations)
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
    # 2^8 messages at n = 10 with 32 helper points: the stack scan, n^2 wide
    (lambda trials: replace(exhaustive_config(trials), message_bits=8), 1, 4 * 128 * 100),
])
def test_engine_chunks_count_toward_the_size_cap(monkeypatch, make, threads, chunk):
    # A chunk holds 4 float64 blocks of (k, n), (k, n^2) on the stack scan,
    # and a pool up to threads + 1 chunks.  One float below them the cell is
    # refused before anything is drawn, and a sweep skips it; at them it runs.
    cfg = make(200)
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
    # The cap is the plan's largest store, a chunk's diagnostics rotations
    # and its x and z, (2 k + 1) n^2 + 2 k n floats with k = min(trials, 128)
    # (one reflector slice at n = 16): the same at 200 and 2000 trials.  No
    # trials x n array is kept, so both run under it, and the profile from
    # running sums matches the one from the reference's vectors.
    storage = plan(analytic_config(200), diagnostics=True).storage
    cap = max(words for words, _ in storage)
    assert cap == storage[-1][0] == ((2 * CHUNK_TRIALS + 1) * 16 + 2 * CHUNK_TRIALS) * 16
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
    # diagnostics it runs.
    cfg = analytic_config(200)
    words, _ = plan(cfg, diagnostics=True).storage[-1]
    monkeypatch.setattr(scheme, "MAX_CODEBOOK_FLOATS", words - 1)

    def refuse(*args):
        raise AssertionError("rotations formed or applied before the size check")

    monkeypatch.setattr(HelperCodebook, "rotations", refuse)
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


def test_diagnostics_slices_leave_the_sums_bitwise(monkeypatch):
    # Under a tile cap of 4 * 3 n^2 floats each chunk applies its rotations 3
    # messages at a time, and the plan's store shrinks to one such slice (and
    # the chunk's x and z); the running sums are bitwise those of whole-chunk
    # slices.
    cfg = analytic_config(300)
    cb, messages = build_codebook(cfg), scheme.draw_messages(cfg)

    def sums():
        added = CorrelationSums()
        scheme.run_trials(cfg, cb, messages, None, added, threads=1)
        return added.sums.tobytes()

    whole = sums()
    monkeypatch.setattr(search, "TILE_FLOATS", 4 * 3 * 16 * 16)
    assert reflector_slice(16) == 3
    assert plan(cfg, diagnostics=True).storage[-1][0] == ((2 * 3 + 1) * 16 + 2 * CHUNK_TRIALS) * 16
    assert sums() == whole


def test_a_long_block_is_admitted_with_diagnostics():
    # A whole chunk's rotations at n = 725, 4 * 128 * 725^2 floats in the
    # formed-Q store, exceeded the cap; one reflector slice is one message,
    # (2 + 1) 725^2 floats, plus the chunk's x and z.
    cfg = config_from_rates(725, 0.5, 0.0, CH, seed=5, eps=0.0, trials=128)
    assert reflector_slice(725) == 1
    assert 4 * CHUNK_TRIALS * 725 ** 2 > scheme.MAX_CODEBOOK_FLOATS
    run = plan(cfg, diagnostics=True).admit()
    assert run.storage[-1] == ((3 * 725 + 2 * CHUNK_TRIALS) * 725,
                               "diagnostics rotations of 128 trials in dimension 725 exceed")


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


@pytest.mark.parametrize("n, diagnostics, threads", [
    (16, False, 1),  # 2^8 * 16 per trial
    (24, False, 2),  # 2^12 * 24
    (24, True, 2),  # 2^12 * 24 + 24^3
])
def test_the_thread_gate_on_the_criterion_5_cells(monkeypatch, n, diagnostics, threads):
    # The gate compares a trial's chunk work, helper search plus the
    # diagnostics' n^3, with THREAD_MIN_WORK.
    cfg = criterion5_config(n, 2 * CHUNK_TRIALS)
    assert plan(cfg, diagnostics, threads=2).threads == threads
    used = record_engine_threads(monkeypatch)
    simulate(cfg, diagnostics=diagnostics, threads=2)
    assert used == [threads]


class TestEngineThreads:
    """Chunks on 1, 2 or 3 threads give bitwise the same results."""

    @pytest.fixture(autouse=True)
    def thread_small_cells(self, monkeypatch):
        monkeypatch.setattr(scheme, "THREAD_MIN_WORK", 0)

    @pytest.mark.parametrize("trials", THREADED_TRIALS)
    def test_results_do_not_depend_on_the_thread_count(self, trials):
        def run_all(threads):
            cfg, exh = analytic_config(trials), exhaustive_config(trials)
            sums = CorrelationSums()
            cb = build_codebook(cfg)
            cols = scheme.run_trials(cfg, cb, scheme.draw_messages(cfg), None,
                                     sums if trials > 1 else None, threads=threads)
            return (columns_bits(cols), sums.sums if trials > 1 else None,
                    summary_bits(simulate(cfg, keep_records=True, diagnostics=trials > 1,
                                          threads=threads)),
                    summary_bits(simulate(exh, keep_records=True, threads=threads)),
                    summary_bits(simulate(grouped_config(trials), keep_records=True,
                                          diagnostics=trials > 1, threads=threads)),
                    summary_bits(simulate_feedback(feedback_config(trials), keep_records=True,
                                                   threads=threads)))

        runs = {threads: run_all(threads) for threads in (1, 2, 3)}
        for threads in (2, 3):
            cols, sums, *summaries = runs[threads]
            want_cols, want_sums, *want_summaries = runs[1]
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
        cb = build_codebook(cfg)
        rotations = candidate_rotations(cfg, cb)
        messages = scheme.draw_messages(cfg)

        def run(threads):
            sums = CorrelationSums()
            cols = scheme.run_trials(cfg, cb, messages, rotations, sums, threads)
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
        # The first chunk is held back, so later chunks finish before it; the
        # running sums must still see the chunks in order, from this thread.
        cfg = analytic_config(4 * CHUNK_TRIALS + 5)
        cb = build_codebook(cfg)
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
            cols = scheme.run_trials(cfg, cb, messages, None, CorrelationSums(), threads)
            monkeypatch.setattr(CorrelationSums, "add", add)
            return added, cols.decoded

        monkeypatch.setattr(scheme, "derive_seed", slow_first)
        serial, decoded = record(1)
        me = threading.get_ident()
        for threads in (2, 3):
            added, threaded_decoded = record(threads)
            assert [a[0] for a in added] == [me] * len(serial)
            assert [a[1:] for a in added] == [a[1:] for a in serial]
            assert threaded_decoded == decoded

    @pytest.mark.parametrize("threads", [2, 3])
    def test_a_failing_chunk_propagates_and_leaves_no_thread(self, monkeypatch, threads):
        # Chunk 3 of 10 raises on its thread: the error comes out unchanged,
        # the chunks not yet started are cancelled (at most threads + 1 were
        # in flight), and the pool's threads are gone when run_trials returns.
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
        assert 3 <= len(calls) <= 3 + threads

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
        # The real gate on a trial's work, 2^helper_bits * n plus n^3 with
        # diagnostics: 2^8 * 16 + 16^3 and 2^5 * 10 run serially, 2^14 * 28
        # on threads.
        monkeypatch.setattr(scheme, "THREAD_MIN_WORK", MIN_WORK)
        simulate(analytic_config(3 * CHUNK_TRIALS), diagnostics=True, threads=4)
        simulate(exhaustive_config(3 * CHUNK_TRIALS), threads=4)
        assert pools == []
        wide = config_from_rates(28, 1.2, 0.5, CH, seed=24, eps=0.1, trials=2 * CHUNK_TRIALS)
        simulate(wide, threads=4)
        assert pools == [(2,)]  # two chunks on min(4, 2) threads

    def test_threaded_diagnostics_memory_does_not_grow_with_trials(self):
        # As test_diagnostics_memory_does_not_grow_with_trials, on 2 threads:
        # each chunk applies its rotations on its own thread, a reflector slice
        # at a time, and at most threads + 1 chunks are in flight, so the
        # threads add no store that grows with the trials.
        n, few, many = 32, 512, 8192

        def extra_peak(trials):
            cfg = config_from_rates(n, 1.2, 0.25, CH, seed=31, eps=0.1, trials=trials)
            peaks = []
            for diagnostics in (True, False):
                tracemalloc.start()
                try:
                    simulate(cfg, diagnostics=diagnostics, threads=2)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return peaks[0] - peaks[1]

        assert extra_peak(many) - extra_peak(few) < 8 * (many - few) * n / 2
