import math
import re

import pytest

from gausshelp import harness, scheme
from gausshelp.capacity import ChannelParams, capacity_cognizant
from gausshelp.cli import cli
from gausshelp.feedback import inner_message, time_zero_noise
from gausshelp.geometry import achievable_rate_threshold, cap_ratio_exact
from gausshelp.harness import CSV_COLUMNS
from gausshelp.scheme import WORKERS_ENV, simulate

SINGLE_CONFIG = """
snr = 3
helper_rate_bits = 0.5
blocklength = 12
rate_bits = 1.2
trials = 30
"""

SWEEP_CONFIG = """
snr = 3
helper_rate_bits = 0.5
blocklength = 12, 16
rate_fraction = 0.6
trials = 20
"""

# 1024 message bits: 2^1024 / sqrt(P) is not a double.
WIDE_FEEDBACK_CONFIG = """
snr = 3
helper_rate_bits = 0
blocklength = 1024
rate_bits = 1
trials = 2
scheme = feedback
"""


def cognizant_replay(cfg):
    """The inner scheme run standalone on the feedback cell's quantized time-zero noise."""
    m_primes = [inner_message(z0, cfg.message_bits, cfg.channel.power)
                for z0 in time_zero_noise(cfg)]
    return simulate(cfg.inner, messages=m_primes)


def run_cli(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCapacityCommand:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--snr", "3", "--rh", "0.5")
        assert code == 0
        lines = dict(line.split(None, 1) for line in out.strip().splitlines())
        ch = ChannelParams.from_snr(3.0)
        assert float(lines["cognizant"]) == pytest.approx(capacity_cognizant(ch, 0.5), abs=1e-6)
        assert float(lines["oblivious"]) == pytest.approx(1.5, abs=1e-6)
        assert lines["oblivious_feedback"] == lines["cognizant"]

    def test_limits_flag(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--snr", "3", "--rh", "0.5", "--limits")
        assert code == 0
        assert "limit_snr_to_0" in out
        assert "inf" in out

    def test_bad_snr_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "capacity", "--snr", "-3", "--rh", "0.5")
        assert code == 1
        assert "error" in err

    def test_nan_helper_rate_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "capacity", "--snr", "3", "--rh", "nan")
        assert code == 1
        assert out == "" and "nonnegative" in err

    @pytest.mark.parametrize("flag, named", [("--snr", "power"), ("--rh", "helper rate")])
    def test_infinite_value_exits_one(self, capsys, flag, named):
        args = {"--snr": "3", "--rh": "0.5", flag: "inf"}
        code, out, err = run_cli(capsys, "capacity", *[a for kv in args.items() for a in kv])
        assert code == 1
        assert out == "" and err.startswith(f"error: {named} must be finite")


class TestThresholdCommand:
    def test_value(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--snr", "3", "--rh", "0.5",
                               "--eps", "0.1")
        assert code == 0
        want = achievable_rate_threshold(ChannelParams.from_snr(3.0), 0.5, 0.1)
        assert float(out.split()[-1]) == pytest.approx(want, abs=1e-6)

    def test_bad_eps_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "threshold", "--snr", "3", "--rh", "0.5",
                             "--eps", "0.9")
        assert code == 1

    @pytest.mark.parametrize("flag, named", [("--snr", "power"), ("--rh", "helper rate")])
    def test_infinite_value_exits_one(self, capsys, flag, named):
        args = {"--snr": "3", "--rh": "0.5", "--eps": "0.1", flag: "inf"}
        code, out, err = run_cli(capsys, "threshold", *[a for kv in args.items() for a in kv])
        assert code == 1
        assert out == "" and err.startswith(f"error: {named} must be finite")


class TestCapAreaCommand:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "cap-area", "--n", "8", "--phi", "1.0")
        assert code == 0
        lines = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(lines["cap_ratio"]) == pytest.approx(cap_ratio_exact(8, 1.0), rel=1e-8)
        assert float(lines["cap_rate_exponent"]) == pytest.approx(
            -math.log2(math.sin(1.0)), rel=1e-8)

    @pytest.mark.parametrize("phi", ["0", "2", "4"])
    def test_bad_angle_prints_nothing(self, capsys, phi):
        # the exponent diverges at 0 and is undefined past pi/2, and the cap
        # ratio past pi; neither line is printed
        code, out, err = run_cli(capsys, "cap-area", "--n", "8", "--phi", phi)
        assert code == 1
        assert out == "" and err.startswith("error: ")


class TestSimulateCommand:
    def test_stdout_csv(self, capsys, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(SINGLE_CONFIG)
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == CSV_COLUMNS
        assert row.startswith("cognizant,12,")

    def test_out_file_and_repro(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(SINGLE_CONFIG)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            code, _, _ = run_cli(capsys, "simulate", "--config", str(conf),
                                 "--out", str(out), "--repro")
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_config_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--config",
                               str(tmp_path / "nope.conf"))
        assert code == 2
        assert "config error" in err

    def test_bad_config_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("snr = 3\nbogus = 1\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert "unknown key" in err

    def test_rejects_sweep_config(self, capsys, tmp_path):
        path = tmp_path / "grid.conf"
        path.write_text(SWEEP_CONFIG)
        code, _, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert "sweep" in err

    def test_feedback_diagnostics_exits_two(self, capsys, tmp_path):
        path = tmp_path / "fb.conf"
        path.write_text(SINGLE_CONFIG + "scheme = feedback\ndiagnostics = on\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert "config error" in err and "scheme" in err and "diagnostics" in err
        assert out == ""

    @pytest.mark.parametrize("fraction", ["0", "-0.5"])
    def test_nonpositive_rate_fraction_exits_two(self, capsys, tmp_path, fraction):
        # once run silently as a cell of one message bit
        path = tmp_path / "run.conf"
        path.write_text(SINGLE_CONFIG.replace("rate_bits = 1.2", f"rate_fraction = {fraction}"))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert err == "config error: rate_fraction values must be positive\n"
        assert out == ""

    @pytest.mark.parametrize("command, blocklength", [
        ("simulate", "1"), ("simulate", "0"), ("sweep", "1, 12"), ("sweep", "12, 1")])
    def test_blocklength_below_two_exits_two(self, capsys, tmp_path, command, blocklength):
        # once exit 1 for a single value, and a crash of the whole sweep in a grid
        path = tmp_path / "run.conf"
        config = SINGLE_CONFIG if command == "simulate" else SWEEP_CONFIG
        path.write_text(re.sub(r"blocklength = .*", f"blocklength = {blocklength}", config))
        workers = ["--workers", "1"] if command == "sweep" else []
        code, out, err = run_cli(capsys, command, "--config", str(path), *workers)
        assert code == 2
        assert err == "config error: blocklength values must be at least 2\n"
        assert out == ""

    def test_zero_trials_exits_two(self, capsys, tmp_path):
        path = tmp_path / "zero.conf"
        path.write_text(SINGLE_CONFIG.replace("trials = 30", "trials = 0"))
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert "config error" in err and "trials" in err
        assert out == ""

    def test_more_than_1023_message_bits(self, capsys, tmp_path):
        # 2^1024 - 1 competitors: the analytic law no longer converts them to a float
        path = tmp_path / "wide.conf"
        path.write_text("snr = 3\nhelper_rate_bits = 0\nblocklength = 1024\n"
                        "rate_bits = 1\ntrials = 2\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 0, err
        header, row = out.strip().split("\n")
        assert header == CSV_COLUMNS
        assert row.startswith("cognizant,1024,1,0,3,0,2,")

    @pytest.mark.parametrize("key, value, replaces", [
        (key, value, replaces)
        for key, replaces in [("snr", "snr = 3"), ("helper_rate_bits", "helper_rate_bits = 0.5"),
                              ("rate_bits", "rate_bits = 1.2"), ("rate_fraction", "rate_bits = 1.2")]
        for value in ("inf", "nan")
    ])
    def test_non_finite_value_exits_two(self, capsys, tmp_path, key, value, replaces):
        path = tmp_path / "run.conf"
        path.write_text(SINGLE_CONFIG.replace(replaces, f"{key} = {value}"))
        lineno = SINGLE_CONFIG.splitlines().index(replaces) + 1
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert code == 2
        assert err == f"config error: line {lineno}: value {value!r} for {key!r} is not finite\n"
        assert out == ""


@pytest.mark.parametrize("command", ["simulate", "sweep"])
class TestRefusedCell:
    def test_codebook_size(self, capsys, tmp_path, command):
        # 2^48 helper points at n = 12
        path = tmp_path / "run.conf"
        path.write_text(SINGLE_CONFIG.replace("helper_rate_bits = 0.5", "helper_rate_bits = 4"))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 1
        assert err.startswith("error: CodebookSizeError: codebook of 2^48 points")
        assert out == ""

    def test_a_huge_message_width_is_written_compactly(self, capsys, tmp_path, command):
        # rate_fraction = 1e300 at n = 8 gives messages of about 1.5e301 bits,
        # a finite product, so the per-trial store refuses the cell; its
        # message names the trial count and writes the width in 3 digits.
        path = tmp_path / "run.conf"
        path.write_text("snr = 3\nhelper_rate_bits = 0.5\nblocklength = 8\n"
                        "rate_fraction = 1e300\ntrials = 5\n")
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 1 and out == ""
        assert err == ("error: CodebookSizeError: 5 trials of 1.48e+301-bit messages exceed "
                       "the size cap\n")

    def test_feedback_wider_than_1023_bits(self, capsys, tmp_path, command):
        # 1024 message bits: once refused because 2^mb is no double, the cell
        # now runs, and its errors are the cognizant replay's
        path = tmp_path / "run.conf"
        path.write_text(WIDE_FEEDBACK_CONFIG)
        code, out, err = run_cli(capsys, command, "--config", str(path), "--repro")
        assert code == 0 and err == ""
        header, row = out.strip().split("\n")
        assert header == CSV_COLUMNS and row.startswith("feedback,1024,1,0,3,0,2,")
        cfg, _ = harness.parse_config(WIDE_FEEDBACK_CONFIG)
        assert row.split(",")[7] == str(cognizant_replay(cfg).errors)


PRODUCTS = {"snr": "n*P", "helper_rate_bits": "n*R_h", "rate_bits": "n*R",
            "rate_fraction": "n*R = n * rate_fraction * capacity"}


def _refuse_any_run(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a refused config ran")

    for name in ("run_cell", "run_sweep", "simulate"):
        monkeypatch.setattr(f"gausshelp.cli.{name}", fail)


@pytest.mark.parametrize("command, key, values", [
    ("simulate", "rate_fraction", "1e308"),
    ("sweep", "rate_fraction", "0.5, 1e308"),
    ("simulate", "rate_bits", "1e308"),
    ("simulate", "helper_rate_bits", "1e308"),
    ("sweep", "helper_rate_bits", "0.5, 1e308"),
    ("simulate", "snr", "1e308"),
    ("sweep", "snr", "3, 1e308"),
])
def test_overflowing_product_with_the_blocklength_refused(capsys, monkeypatch, tmp_path,
                                                          command, key, values):
    # n*R, n*R_h or n*P past the float range at n = 8: once an OverflowError
    # traceback, or for snr a NaN codebook that ended the sweep with exit 1
    lines = {"snr": "3", "helper_rate_bits": "0.5", "blocklength": "8",
             "rate_fraction": "0.5", "trials": "5"}
    if key == "rate_bits":
        del lines["rate_fraction"]
    lines[key] = values
    path, out_path = tmp_path / "run.conf", tmp_path / "out.csv"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    _refuse_any_run(monkeypatch)
    code, out, err = run_cli(capsys, command, "--config", str(path), "--out", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err == (f"config error: {key} = 1e+308 is too large: {PRODUCTS[key]} overflows "
                   "at blocklength 8\n")


@pytest.mark.parametrize("flag, key", [("--rate-fraction", "rate_fraction"),
                                       ("--rh", "helper_rate_bits"), ("--snr", "snr")])
def test_diagnose_refuses_an_overflowing_product_with_the_blocklength(capsys, monkeypatch,
                                                                       flag, key):
    _refuse_any_run(monkeypatch)
    flags = {"--snr": "3", "--rh": "0.5", "--n": "8", flag: "1e308"}
    code, out, err = run_cli(capsys, "diagnose", *(x for kv in flags.items() for x in kv))
    assert code == 2 and out == ""
    assert err == (f"config error: {key} = 1e+308 is too large: {PRODUCTS[key]} overflows "
                   "at blocklength 8\n")


class TestSweepCommand:
    def test_two_rows(self, capsys, tmp_path):
        path = tmp_path / "grid.conf"
        path.write_text(SWEEP_CONFIG)
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path),
                               "--workers", "1", "--repro")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "12"
        assert lines[2].split(",")[1] == "16"

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_workers_below_one_is_a_usage_error(self, capsys, tmp_path, workers):
        path = tmp_path / "grid.conf"
        path.write_text(SWEEP_CONFIG)
        code, out, err = run_cli(capsys, "sweep", "--config", str(path), "--workers", workers)
        assert code == 1
        assert "--workers" in err and out == ""

    @pytest.mark.parametrize("raw", ["abc", "-2"])
    def test_bad_workers_env_names_the_variable(self, capsys, tmp_path, monkeypatch, raw):
        path = tmp_path / "grid.conf"
        path.write_text(SWEEP_CONFIG)
        monkeypatch.setenv(WORKERS_ENV, raw)
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1
        assert WORKERS_ENV in err and repr(raw) in err and out == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_are_refused_by_the_resolver(self, capsys, tmp_path, workers):
        # --workers holds no rule of its own: scheme.resolve_workers refuses
        # the count, with the message every library entry point gives.
        path = tmp_path / "grid.conf"
        path.write_text(SWEEP_CONFIG)
        with pytest.raises(ValueError) as refused:
            scheme.resolve_workers(int(workers))
        code, _, err = run_cli(capsys, "sweep", "--config", str(path), "--workers", workers)
        assert code == 1
        assert f"argument --workers: {refused.value}" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_huge_helper_codebook_cell_is_skipped(self, capsys, tmp_path, caplog, workers):
        # 2^16000 helper points at n = 8: the size message once converted
        # 2^16000 to a decimal string, which raised and ended the sweep
        path = tmp_path / "grid.conf"
        path.write_text("snr = 3\nhelper_rate_bits = 0.5, 2000\nblocklength = 8\n"
                        "rate_fraction = 0.7\ntrials = 20\n")
        with caplog.at_level("WARNING"):
            code, out, _ = run_cli(capsys, "sweep", "--config", str(path), "--workers", workers,
                                   "--repro")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("cognizant,8,1.375,0.5,")
        (skip,) = [rec.message for rec in caplog.records if "skipped" in rec.message]
        assert skip.endswith("CodebookSizeError: codebook of 2^16000 points in dimension 8 "
                             "exceeds the size cap")

    def test_wide_feedback_cell_runs(self, capsys, tmp_path, caplog):
        # The n = 1024 cell takes 1035 message bits; no cell is skipped
        text = (WIDE_FEEDBACK_CONFIG.replace("blocklength = 1024", "blocklength = 8, 1024")
                .replace("rate_bits = 1", "rate_fraction = 1.01"))
        path = tmp_path / "grid.conf"
        path.write_text(text)
        with caplog.at_level("WARNING"):
            code, out, _ = run_cli(capsys, "sweep", "--config", str(path), "--workers", "1",
                                   "--repro")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3 and lines[1].startswith("feedback,8,")
        assert lines[2].startswith("feedback,1024,")
        assert not [rec for rec in caplog.records if "skipped" in rec.message]
        spec, _ = harness.parse_config(text)
        cfg = harness.cell_config(spec, 0, 0, 1, 0)
        assert cfg.message_bits == 1035
        assert lines[2].split(",")[7] == str(cognizant_replay(cfg).errors)

    def test_workers_bound_the_engine_of_a_single_config(self, capsys, tmp_path, monkeypatch):
        # The thread count each engine call hands its chunk loop; the gate is
        # lowered so that this small cell is not held to one thread.
        threads = []
        in_order = scheme._in_order

        def recording(fn, items, count, take):
            threads.append(count)
            in_order(fn, items, count, take)

        monkeypatch.setattr(scheme, "THREAD_MIN_WORK", 0)
        monkeypatch.setattr(scheme, "_in_order", recording)
        monkeypatch.setenv(WORKERS_ENV, "2")
        path = tmp_path / "run.conf"
        path.write_text(SINGLE_CONFIG)
        for argv in (["sweep", "--workers", "3"], ["sweep"], ["simulate"]):
            code, out, _ = run_cli(capsys, *argv, "--config", str(path))
            assert code == 0 and len(out.strip().split("\n")) == 2
        assert threads == [3, 2, 2]

    def test_accepts_single_config(self, capsys, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(SINGLE_CONFIG)
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    @pytest.mark.parametrize("extra, named", [
        ("scheme = feedback\ndiagnostics = on\n", ("scheme", "diagnostics")),
        ("diagnostics = on\n", ("trials", "diagnostics")),
    ])
    def test_grid_that_cannot_run_exits_two(self, capsys, tmp_path, extra, named):
        path = tmp_path / "grid.conf"
        path.write_text(SWEEP_CONFIG.replace("trials = 20", "trials = 1") + extra)
        code, out, err = run_cli(capsys, "sweep", "--config", str(path), "--workers", "1")
        assert code == 2
        assert "config error" in err and all(key in err for key in named)
        assert out == ""

    def test_zero_trials_grid_exits_two(self, capsys, tmp_path):
        path = tmp_path / "grid.conf"
        path.write_text(SWEEP_CONFIG.replace("trials = 20", "trials = 0"))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path), "--workers", "1")
        assert code == 2
        assert "config error" in err and "trials" in err
        assert out == ""


class TestDiagnoseCommand:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "diagnose", "--snr", "3", "--rh", "0.5",
                               "--n", "12", "--trials", "200")
        assert code == 0
        lines = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert int(lines["trials"]) == 200
        assert float(lines["corr_budget"]) == pytest.approx(12 * 0.5, abs=1e-9)
        assert lines["within_budget"] in ("yes", "NO")


    @pytest.mark.parametrize("trials", ["1", "0", "-5"])
    def test_fewer_than_two_trials_refused_before_running(self, capsys, monkeypatch, trials):
        def fail(*args, **kwargs):
            raise AssertionError("diagnose ran a simulation")

        monkeypatch.setattr("gausshelp.cli.simulate", fail)
        code, out, err = run_cli(capsys, "diagnose", "--snr", "3", "--rh", "0.5",
                                 "--n", "12", "--trials", trials)
        assert code == 2
        reason = ("diagnostics = on needs trials of at least 2, got trials = 1" if trials == "1"
                  else f"trials must be at least 1, got {trials}")
        assert err == f"config error: {reason}\n"
        assert out == ""

    @pytest.mark.parametrize("fraction", ["0", "-0.5", "nan", "inf"])
    def test_bad_rate_fraction_refused_before_running(self, capsys, monkeypatch, fraction):
        def fail(*args, **kwargs):
            raise AssertionError("diagnose ran a simulation")

        monkeypatch.setattr("gausshelp.cli.simulate", fail)
        code, out, err = run_cli(capsys, "diagnose", "--snr", "3", "--rh", "0.5",
                                 "--n", "12", "--rate-fraction", fraction)
        assert code == 2
        wanted = "finite" if fraction in ("nan", "inf") else "positive"
        assert err == f"config error: rate_fraction values must be {wanted}\n"
        assert out == ""

    @pytest.mark.parametrize("flag, value, wanted", [
        ("--snr", "0", "positive"), ("--snr", "-1", "positive"), ("--snr", "nan", "positive"),
        ("--snr", "inf", "positive"), ("--rh", "-0.5", "nonnegative"),
        ("--rh", "nan", "nonnegative"), ("--rh", "inf", "nonnegative"),
    ])
    def test_bad_snr_or_helper_rate_refused_before_running(self, capsys, monkeypatch, flag,
                                                           value, wanted):
        # inf once crashed with an OverflowError; nan and negative values
        # exited 1, where the config grammar refuses them as config errors
        def fail(*args, **kwargs):
            raise AssertionError("diagnose ran a simulation")

        monkeypatch.setattr("gausshelp.cli.simulate", fail)
        rates = {"--snr": "3", "--rh": "0.5", flag: value}
        code, out, err = run_cli(capsys, "diagnose", *(x for kv in rates.items() for x in kv),
                                 "--n", "12")
        assert code == 2
        key = {"--snr": "snr", "--rh": "helper_rate_bits"}[flag]
        if value in ("nan", "inf"):  # refused as not finite, before the range
            wanted = "finite"
        assert err == f"config error: {key} values must be {wanted}\n"
        assert out == ""

    @pytest.mark.parametrize("args, reason", [
        (("--n", "1"), "blocklength values must be at least 2"),
        (("--n", "-4"), "blocklength values must be at least 2"),
        (("--eps", "0.7"), "violated constraint '0 < eps < R_h': eps=0.7, helper_rate_bits=0.5"),
        (("--eps", "nan"), "violated constraint '0 < eps < R_h': eps=nan, helper_rate_bits=0.5"),
        (("--eps", "0"), "violated constraint '0 < eps < R_h': eps=0.0, helper_rate_bits=0.5"),
        (("--rh", "0", "--eps", "0.1"), "eps must be 0 when helper_rate_bits is 0"),
    ])
    def test_bad_blocklength_or_eps_refused_before_running(self, capsys, monkeypatch, args,
                                                           reason):
        # these exited 1 from the scheme's own checks; the same values in a
        # config file are config errors
        def fail(*args, **kwargs):
            raise AssertionError("diagnose ran a simulation")

        monkeypatch.setattr("gausshelp.cli.simulate", fail)
        flags = {"--snr": "3", "--rh": "0.5", "--n": "12", **dict(zip(args[::2], args[1::2]))}
        code, out, err = run_cli(capsys, "diagnose", *(x for kv in flags.items() for x in kv))
        assert code == 2
        assert err == f"config error: {reason}\n"
        assert out == ""


class TestTopLevel:
    def test_no_arguments_prints_usage(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "capacity" in out

    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1
