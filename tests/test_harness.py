import io
import math
import multiprocessing
import os
import re
from dataclasses import replace
from types import SimpleNamespace

import pytest

from gausshelp.capacity import ChannelParams, capacity_cognizant
from gausshelp.feedback import FeedbackConfig
from gausshelp import harness
from gausshelp.harness import (
    CSV_COLUMNS,
    ConfigError,
    SweepSpec,
    cell_config,
    emit_csv,
    parse_config,
    run_cell,
    run_sweep,
)
from gausshelp.scheme import WORKERS_ENV, SchemeConfig, plan, simulate

MINIMAL = """
snr = 3
helper_rate_bits = 0.5
blocklength = 12
rate_bits = 1.2
trials = 40
"""

SWEEP = """
snr = 3
helper_rate_bits = 0.5
blocklength = 12, 16
rate_fraction = 0.5, 0.7
trials = 30
seed = 9
"""


class TestParseSingle:
    def test_minimal(self):
        cfg, diagnostics = parse_config(MINIMAL)
        assert isinstance(cfg, SchemeConfig)
        assert not diagnostics
        assert cfg.blocklength == 12
        assert cfg.trials == 40
        assert cfg.helper_rate == pytest.approx(0.5)
        assert cfg.eps == pytest.approx(0.05)  # default 0.1 * helper rate
        assert cfg.channel.snr == 3.0

    def test_rate_fraction_single(self):
        text = MINIMAL.replace("rate_bits = 1.2", "rate_fraction = 0.7")
        cfg, _ = parse_config(text)
        cap = capacity_cognizant(ChannelParams.from_snr(3.0), 0.5)
        # the requested rate is quantized up to a whole number of message bits
        assert cfg.message_bits == math.ceil(12 * 0.7 * cap)

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\n" + MINIMAL + "   # trailing\n"
        cfg, _ = parse_config(text)
        assert cfg.blocklength == 12

    def test_default_seed_and_trials(self):
        text = "snr = 3\nhelper_rate_bits = 0.5\nblocklength = 8\nrate_bits = 1\n"
        cfg, _ = parse_config(text)
        assert cfg.trials == 10000
        assert cfg.base_seed == 1

    def test_feedback_scheme(self):
        cfg, _ = parse_config(MINIMAL + "scheme = feedback\n")
        assert isinstance(cfg, FeedbackConfig)
        assert cfg.inner.blocklength == 12

    def test_diagnostics_flag(self):
        _, diagnostics = parse_config(MINIMAL + "diagnostics = on\n")
        assert diagnostics


class TestParseErrors:
    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "bogus = 1\n")

    def test_duplicate_key_reports_both_lines(self):
        text = "snr = 3\nhelper_rate_bits = 0.5\nsnr = 4\nblocklength = 8\nrate_bits = 1\n"
        with pytest.raises(ConfigError, match=r"lines 1 and 3"):
            parse_config(text)

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("snr 3\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="snr"):
            parse_config("helper_rate_bits = 0.5\nblocklength = 8\nrate_bits = 1\n")

    def test_rate_keys_are_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(MINIMAL + "rate_fraction = 0.7\n")
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(MINIMAL.replace("rate_bits = 1.2", ""))

    def test_eps_constraint_named(self):
        with pytest.raises(ConfigError, match="0 < eps < R_h"):
            parse_config(MINIMAL + "eps = 0.6\n")

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="not a number"):
            parse_config(MINIMAL.replace("snr = 3", "snr = three"))

    def test_bad_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            parse_config(MINIMAL + "scheme = telepathy\n")

    def test_sweep_needs_rate_fraction(self):
        text = MINIMAL.replace("blocklength = 12", "blocklength = 12, 16")
        with pytest.raises(ConfigError, match="rate_fraction"):
            parse_config(text)

    def test_nonpositive_snr(self):
        with pytest.raises(ConfigError, match="snr"):
            parse_config(MINIMAL.replace("snr = 3", "snr = -1"))

    @pytest.mark.parametrize("text", [MINIMAL, SWEEP], ids=["single", "grid"])
    def test_feedback_diagnostics_refused(self, text):
        with pytest.raises(ConfigError, match="diagnostics.*scheme"):
            parse_config(text + "scheme = feedback\ndiagnostics = on\n")

    @pytest.mark.parametrize("text", [MINIMAL, SWEEP], ids=["single", "grid"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_refused(self, text, trials):
        with pytest.raises(ConfigError, match="trials"):
            parse_config(re.sub(r"trials = \d+", f"trials = {trials}", text))

    @pytest.mark.parametrize("text", [MINIMAL, SWEEP], ids=["single", "grid"])
    def test_diagnostics_need_two_trials(self, text):
        text = re.sub(r"trials = \d+", "trials = 1", text)
        with pytest.raises(ConfigError, match="diagnostics.*trials"):
            parse_config(text + "diagnostics = on\n")
        assert parse_config(text)[0] is not None  # one trial without diagnostics runs

    @pytest.mark.parametrize("text", [MINIMAL.replace("rate_bits = 1.2", "rate_fraction = 0.7"),
                                      SWEEP], ids=["single", "grid"])
    @pytest.mark.parametrize("fraction", ["0", "-0.5"])
    def test_nonpositive_rate_fraction_refused(self, text, fraction):
        text = re.sub(r"rate_fraction = 0\.\d", f"rate_fraction = {fraction}", text)
        with pytest.raises(ConfigError, match="rate_fraction.*positive"):
            parse_config(text)

    @pytest.mark.parametrize("text", [
        MINIMAL.replace("blocklength = 12", "blocklength = 1"),
        MINIMAL.replace("blocklength = 12", "blocklength = -3"),
        SWEEP.replace("blocklength = 12, 16", "blocklength = 12, 1"),
        SWEEP.replace("blocklength = 12, 16", "blocklength = 0, 16"),
    ], ids=["single-1", "single-negative", "grid-1", "grid-0"])
    def test_blocklength_below_two_refused(self, text):
        # a grid once parsed and then ended the sweep at the cell's config
        with pytest.raises(ConfigError, match="^blocklength values must be at least 2$"):
            parse_config(text)

    def test_sweep_spec_refuses_what_cannot_run(self):
        grid = dict(snr=(3.0,), helper_rate=(0.5,), blocklength=(12,), rate_fraction=(0.7,),
                    base_seed=5)
        with pytest.raises(ConfigError, match="diagnostics.*scheme"):
            SweepSpec(trials=50, scheme="feedback", diagnostics=True, **grid)
        with pytest.raises(ConfigError, match="trials"):
            SweepSpec(trials=0, **grid)
        with pytest.raises(ConfigError, match="diagnostics.*trials"):
            SweepSpec(trials=1, diagnostics=True, **grid)

    def test_run_cell_refuses_feedback_diagnostics(self):
        cfg, _ = parse_config(MINIMAL + "scheme = feedback\n")
        with pytest.raises(ValueError, match="cognizant"):
            run_cell(cfg, diagnostics=True)


@pytest.fixture
def recording_pool(monkeypatch):
    """Stand in for the sweep's process pool: run in this process and record
    each pool's size and the cells it receives."""
    seen = SimpleNamespace(sizes=[], items=[])

    class RecordingPool:
        def __init__(self, max_workers, **kwargs):
            seen.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            seen.items.extend(items)
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return seen


class TestSweep:
    def test_list_value_triggers_sweep(self):
        spec, _ = parse_config(SWEEP)
        assert isinstance(spec, SweepSpec)
        assert spec.blocklength == (12, 16)
        assert spec.rate_fraction == (0.5, 0.7)
        assert spec.base_seed == 9

    def test_cell_seeds_distinct(self):
        spec, _ = parse_config(SWEEP)
        seeds = {cell_config(spec, 0, 0, i, j).base_seed
                 for i in range(2) for j in range(2)}
        assert len(seeds) == 4

    def test_one_by_one_sweep_matches_direct_run(self):
        spec = SweepSpec(snr=(3.0,), helper_rate=(0.5,), blocklength=(12,),
                         rate_fraction=(0.7,), trials=50, base_seed=5)
        (swept,) = run_sweep(spec, workers=1)
        direct = run_cell(cell_config(spec, 0, 0, 0, 0))
        assert swept.errors == direct.errors
        assert swept.err_rate == direct.err_rate
        assert swept.mean_helper_angle == direct.mean_helper_angle

    def test_worker_count_does_not_change_output(self):
        spec, _ = parse_config(SWEEP)
        a, b = io.StringIO(), io.StringIO()
        emit_csv(run_sweep(spec, workers=1), a, zero_walltime=True)
        emit_csv(run_sweep(spec, workers=3), b, zero_walltime=True)
        assert a.getvalue() == b.getvalue()

    def test_default_workers_follow_the_cpu_affinity(self, monkeypatch, recording_pool):
        # six cells, so that no count below is cut to the cell count
        spec = SweepSpec(snr=(3.0,), helper_rate=(0.5,), blocklength=(8, 12),
                         rate_fraction=(0.3, 0.5, 0.7), trials=5, base_seed=2)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        run_sweep(spec)  # pinned to 2 of 6 CPUs: 2 workers
        monkeypatch.setenv(WORKERS_ENV, "3")
        run_sweep(spec)
        run_sweep(spec, workers=4)
        monkeypatch.delenv(WORKERS_ENV)
        monkeypatch.delattr(os, "sched_getaffinity")
        run_sweep(spec)  # no affinity call on this OS: the CPU count
        assert recording_pool.sizes == [2, 3, 4, 6]

    def test_pool_never_exceeds_the_cell_count(self, recording_pool):
        # With fork, a pool starts all max_workers processes at the first
        # submit; 10_000 workers over two cells must ask for two.
        spec = SweepSpec(snr=(3.0,), helper_rate=(0.5,), blocklength=(8, 12),
                         rate_fraction=(0.5,), trials=5, base_seed=2)
        assert len(run_sweep(spec, workers=10_000)) == 2
        assert recording_pool.sizes == [2]
        assert multiprocessing.active_children() == []

    def test_env_workers_must_be_a_nonnegative_integer(self, monkeypatch):
        spec = SweepSpec(snr=(3.0,), helper_rate=(0.5,), blocklength=(8,),
                         rate_fraction=(0.5,), trials=5, base_seed=2)
        for raw in ("abc", "-2", "1.5", ""):
            monkeypatch.setenv(WORKERS_ENV, raw)
            with pytest.raises(ValueError, match=WORKERS_ENV):
                run_sweep(spec)
        monkeypatch.setenv(WORKERS_ENV, "0")  # 0: the default
        assert len(run_sweep(spec)) == 1

    def test_pool_receives_cells_longest_first(self, recording_pool):
        spec = SweepSpec(snr=(1.0, 3.0), helper_rate=(0.5,), blocklength=(8, 12),
                         rate_fraction=(0.4, 0.7), trials=5, base_seed=4, scheme="feedback")
        serial = io.StringIO()
        emit_csv(run_sweep(spec, workers=1), serial, zero_walltime=True)
        pooled = io.StringIO()
        emit_csv(run_sweep(spec, workers=2), pooled, zero_walltime=True)
        work = [plan(cfg.inner, diagnostics).work for cfg, diagnostics in recording_pool.items]
        assert len(work) == 8
        assert work == sorted(work, reverse=True) and work[0] > work[-1]
        assert pooled.getvalue() == serial.getvalue()  # summaries back in sweep order

    def test_feedback_sweep_grid_ranks_the_4096_message_cell_first(self):
        # the benchmark's feedback-sweep grid: the n = 16 exhaustive cell with
        # 2^12 messages is 11th of 12 in sweep order
        spec = SweepSpec(snr=(1.0, 3.0), helper_rate=(0.5,), blocklength=(8, 12, 16),
                         rate_fraction=(0.4, 0.7), trials=300, base_seed=7, scheme="feedback")
        cells = [cell_config(spec, i_snr, 0, i_n, i_frac)
                 for i_snr in range(2) for i_n in range(3) for i_frac in range(2)]
        first = max(cells, key=lambda cfg: plan(cfg.inner).work)
        assert cells.index(first) == 10
        assert (first.inner.blocklength, first.inner.message_bits) == (16, 12)

    def test_grouped_cells_rank_by_their_codebook_scan(self):
        # At n = 12, 8 helper points take the grouped route (n-wide scores)
        # and 32 the stack scan (n^2-wide).  The grouped cell with 2^10
        # messages now ranks below the stack cell with 2^8; the estimate
        # M n^2 (n + trials) for every exhaustive cell ranked it above.
        spec = SweepSpec(snr=(1.0, 3.0), helper_rate=(0.25, 0.375), blocklength=(12,),
                         rate_fraction=(0.5,), trials=300, base_seed=3)
        cells = [cell_config(spec, i_snr, i_rh, 0, 0) for i_snr in range(2) for i_rh in range(2)]
        assert [(c.message_bits, plan(c).route == "grouped") for c in cells] == [
            (7, True), (8, False), (10, True), (11, False)]
        order = sorted(range(4), key=lambda i: -plan(cells[i]).work)
        assert order == [3, 1, 2, 0]

    def test_pooled_skips_are_logged_in_sweep_order(self, caplog):
        # 2^48 and 2^64 helper points: both cells skipped, and the costlier
        # n = 16 one goes to the pool first
        spec = SweepSpec(snr=(3.0,), helper_rate=(0.5, 4.0), blocklength=(12, 16),
                         rate_fraction=(0.5,), trials=20, base_seed=1)
        with caplog.at_level("WARNING"):
            summaries = run_sweep(spec, workers=2)
        assert [s.blocklength for s in summaries] == [12, 16]
        skips = [rec.message for rec in caplog.records if "skipped" in rec.message]
        assert len(skips) == 2  # each with its own cell's reason
        assert "n=12" in skips[0] and "2^48 points in dimension 12" in skips[0]
        assert "n=16" in skips[1] and "2^64 points in dimension 16" in skips[1]

    def test_astronomical_helper_rate_is_skipped_on_a_pool(self, caplog):
        # 8e300 helper bits: ordering the cells for the pool must not form
        # 2^helper_bits (an OverflowError that ended the sweep)
        spec = SweepSpec(snr=(3.0,), helper_rate=(0.5, 1e300), blocklength=(8,),
                         rate_fraction=(0.5,), trials=5, base_seed=1)
        with caplog.at_level("WARNING"):
            summaries = run_sweep(spec, workers=2)
        assert [s.helper_rate_bits for s in summaries] == [0.5]
        (skip,) = [rec.message for rec in caplog.records if "skipped" in rec.message]
        assert "CodebookSizeError: 5 trials of " in skip

    def test_oversized_cell_skipped(self, caplog):
        spec = SweepSpec(snr=(3.0,), helper_rate=(0.5, 4.0), blocklength=(12,),
                         rate_fraction=(0.5,), trials=20, base_seed=1)
        for workers in (1, 2):
            caplog.clear()
            with caplog.at_level("WARNING"):
                summaries = run_sweep(spec, workers=workers)
            assert len(summaries) == 1  # the 2^48-point codebook cell is dropped
            assert any("skipped" in rec.message for rec in caplog.records)

    def test_wide_feedback_cell_runs(self, caplog):
        # 52 message bits at n = 48: once skipped for a float time-zero map
        spec = SweepSpec(snr=(3.0,), helper_rate=(0.25,), blocklength=(12, 48),
                         rate_fraction=(0.7,), trials=300, base_seed=1, scheme="feedback")
        for workers in (1, 2):
            caplog.clear()
            with caplog.at_level("WARNING"):
                summaries = run_sweep(spec, workers=workers)
            assert [s.blocklength for s in summaries] == [12, 48]
            assert [s.boundary_events for s in summaries] == [0, 0]
            assert not [rec for rec in caplog.records if "skipped" in rec.message]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched run_cell reaches the workers only through fork")
    def test_pool_workers_run_the_engine_on_one_thread(self, monkeypatch):
        # Each cell reports the engine thread count from where it runs.  A set
        # GAUSSHELP_WORKERS that a worker would otherwise resolve to is ignored.
        spec = SweepSpec(snr=(3.0,), helper_rate=(0.5,), blocklength=(8, 12),
                         rate_fraction=(0.5,), trials=5, base_seed=2)
        one_cell = replace(spec, blocklength=(8,))
        monkeypatch.setattr(harness, "run_cell", lambda cfg, diagnostics, threads: threads)
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert run_sweep(spec, workers=2) == [1, 1]  # two worker processes
        assert run_sweep(spec, workers=1) == [1, 1]  # serial: the resolved count
        assert run_sweep(one_cell, workers=3) == [3]
        assert run_sweep(one_cell) == [4]

    def test_feedback_cell_past_1023_bits_runs(self, caplog):
        # 1035 message bits at n = 1024: past the float range of 2^mb, the
        # time-zero map is still exact, so both cells run on every worker count
        spec = SweepSpec(snr=(3.0,), helper_rate=(0.0,), blocklength=(8, 1024),
                         rate_fraction=(1.01,), trials=2, base_seed=1, scheme="feedback")
        assert cell_config(spec, 0, 0, 1, 0).message_bits == 1035
        for workers in (1, 2):
            caplog.clear()
            with caplog.at_level("WARNING"):
                summaries = run_sweep(spec, workers=workers)
            assert [s.blocklength for s in summaries] == [8, 1024]
            assert all(s.boundary_events == 0 for s in summaries)
            assert not [rec for rec in caplog.records if "skipped" in rec.message]

    def test_cell_rate_tracks_capacity(self):
        spec, _ = parse_config(SWEEP)
        cfg = cell_config(spec, 0, 0, 1, 1)
        cap = capacity_cognizant(ChannelParams.from_snr(3.0), 0.5)
        assert cfg.message_bits == math.ceil(16 * 0.7 * cap)


class TestEmitCsv:
    def test_header_only_when_empty(self):
        sink = io.StringIO()
        emit_csv([], sink)
        assert sink.getvalue() == CSV_COLUMNS + "\n"

    def test_row_shape_and_content(self):
        cfg, _ = parse_config(MINIMAL)
        summary = simulate(cfg)
        sink = io.StringIO()
        emit_csv([summary], sink)
        header, row = sink.getvalue().rstrip("\n").split("\n")
        assert header == CSV_COLUMNS
        fields = row.split(",")
        assert len(fields) == len(CSV_COLUMNS.split(","))
        named = dict(zip(CSV_COLUMNS.split(","), fields))
        assert named["scheme"] == "cognizant"
        assert named["n"] == "12"
        assert named["trials"] == "40"
        assert int(named["errors"]) == summary.errors
        assert named["corr_sum"] == "nan"  # no diagnostics requested
        # capacity column recomputes from snr and helper rate
        cap = capacity_cognizant(ChannelParams.from_snr(3.0), 0.5)
        assert float(named["capacity_bits"]) == pytest.approx(cap, rel=1e-8)

    def test_lf_endings_and_no_trailing_blank(self):
        cfg, _ = parse_config(MINIMAL)
        sink = io.StringIO()
        emit_csv([simulate(cfg)], sink)
        text = sink.getvalue()
        assert "\r" not in text
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_zero_walltime_makes_output_reproducible(self):
        cfg, _ = parse_config(MINIMAL)
        a, b = io.StringIO(), io.StringIO()
        emit_csv([simulate(cfg)], a, zero_walltime=True)
        emit_csv([simulate(cfg)], b, zero_walltime=True)
        assert a.getvalue() == b.getvalue()

    def test_error_rate_improves_with_rate_headroom(self):
        # at fixed n, running further below the threshold cannot hurt much;
        # compare a modest and an aggressive rate fraction
        base = """
        snr = 3
        helper_rate_bits = 0.5
        blocklength = 16
        rate_fraction = {frac}
        trials = 400
        seed = 2
        """
        lo, _ = parse_config(base.format(frac=0.5))
        hi, _ = parse_config(base.format(frac=0.95))
        assert simulate(lo).err_rate <= simulate(hi).err_rate
