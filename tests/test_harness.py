import io
import math

import pytest

from gausshelp.capacity import ChannelParams, capacity_cognizant
from gausshelp.feedback import FeedbackConfig
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
from gausshelp.scheme import SchemeConfig, simulate

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

    def test_oversized_cell_skipped(self, caplog):
        spec = SweepSpec(snr=(3.0,), helper_rate=(0.5, 4.0), blocklength=(12,),
                         rate_fraction=(0.5,), trials=20, base_seed=1)
        with caplog.at_level("WARNING"):
            summaries = run_sweep(spec, workers=1)
        assert len(summaries) == 1  # the 2^48-point codebook cell is dropped
        assert any("skipped" in rec.message for rec in caplog.records)

    def test_quantization_boundary_cell_skipped(self, caplog):
        # 52 message bits at n = 48: the time-zero identity fails in floating point
        spec = SweepSpec(snr=(3.0,), helper_rate=(0.25,), blocklength=(12, 48),
                         rate_fraction=(0.7,), trials=300, base_seed=1, scheme="feedback")
        with caplog.at_level("WARNING"):
            summaries = run_sweep(spec, workers=1)
        assert [s.blocklength for s in summaries] == [12]
        (skip,) = [rec.message for rec in caplog.records if "skipped" in rec.message]
        assert "n=48" in skip and "QuantizationBoundaryError" in skip and "trial" in skip

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
