"""Tests of the benchmark itself: every workload passes its checks at a tiny
size, and every check rejects a deliberately wrong result.

    python3 -m pytest perfbench -q
"""

import dataclasses
import math
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 1
# Tiny trial counts; criterion5 keeps enough trials for its decay check to
# have power (3000 per cell).
SCALES = {"criterion5": 0.3, "exhaustive-decode": 0.1, "feedback-sweep": 0.1}


def tiny(name, tmp_path, workers=None):
    return workloads.make(name, SEED, str(tmp_path), workers=workers, scale=SCALES[name])


@pytest.fixture(scope="module")
def criterion5(tmp_path_factory):
    wl = tiny("criterion5", tmp_path_factory.mktemp("c5"))
    _, outputs, failed = run.run_round(wl.calls())
    assert failed == 0
    return wl, outputs


@pytest.fixture(scope="module")
def exhaustive(tmp_path_factory):
    wl = tiny("exhaustive-decode", tmp_path_factory.mktemp("ex"))
    _, outputs, failed = run.run_round(wl.calls())
    assert failed == 0
    return wl, outputs[0]


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    wl = tiny("feedback-sweep", tmp_path_factory.mktemp("fs"))
    _, outputs, failed = run.run_round(wl.calls())
    assert failed == 0
    return wl, Path(outputs[0]).read_text()


def test_criterion5_passes_its_checks(criterion5):
    wl, outputs = criterion5
    wl.check(outputs)


def test_exhaustive_decode_passes_its_checks(exhaustive):
    wl, s = exhaustive
    wl.check([s])


def test_feedback_sweep_passes_its_checks_and_repeats_byte_identically(tmp_path):
    wl = tiny("feedback-sweep", tmp_path)
    for _ in range(2):
        _, outputs, failed = run.run_round(wl.calls())
        assert failed == 0
        wl.check(outputs)


def test_setup_calls_run_one_trial_per_cell(tmp_path):
    for name in workloads.NAMES:
        wl = tiny(name, tmp_path)
        calls = wl.calls(setup=True)
        assert len(calls) == len(wl.calls())
        _, _, failed = run.run_round(calls)
        assert failed == 0


def test_timed_run_ends_with_bounded_setup_samples(tmp_path):
    # Set-up samples slower than the sampling interval must not keep the run going.
    wl = tiny("exhaustive-decode", tmp_path)
    correct, attempted, failed, metrics, detail = run.timed_run(wl, 0.5)
    assert correct and failed == 0 and attempted == len(detail["round_call_s"])
    assert 1 <= len(detail["setup_samples_s"]) <= run.SETUP_SAMPLES
    assert metrics["trials_per_s"][0] > 0 and metrics["setup_s"][0] > 0


def test_sweep_peak_rss_counts_what_the_workers_add(tmp_path):
    wl = tiny("feedback-sweep", tmp_path, workers=2)
    _, _, failed, metrics, detail = run.timed_run(wl, 0.1)
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert failed == 0 and 0 < detail["fork_base_rss_kb"] < detail["worker_peak_rss_kb"]
    assert metrics["peak_rss_mb"][0] > own_mb


def test_closed_forms_match_known_values():
    # Endpoint values: no help gives the AWGN capacity; SNR 3 gives 1 bit.
    assert checks.capacity_bits(3.0, 1e-12) == pytest.approx(1.0, abs=1e-5)
    # The threshold approaches capacity as eps -> 0.
    assert checks.threshold_bits(3.0, 0.5, 1e-7) == pytest.approx(
        checks.capacity_bits(3.0, 0.5), abs=1e-5)
    assert checks.cap_ratio(3, [1.0])[0] == pytest.approx((1 - math.cos(1.0)) / 2)


def test_summary_check_rejects_wrong_capacity_threshold_interval_and_inputs(criterion5):
    wl, outputs = criterion5
    s, cfg = outputs[0], wl.cfgs[16]
    checks.check_summary("n=16", s, cfg)
    for field, delta, reason in (("capacity_bits", 1e-6, "capacity_bits"),
                                 ("threshold_bits", 1e-6, "threshold_bits"),
                                 ("ci_high", 1e-3, "Wilson"),
                                 ("snr", 1.0, "echoes")):
        bad = dataclasses.replace(s, **{field: getattr(s, field) + delta})
        with pytest.raises(checks.CheckError, match=reason):
            checks.check_summary("n=16", bad, cfg)


def _flip_errors(s, count):
    records = [dataclasses.replace(r) for r in s.records]
    flipped = 0
    for r in records:
        if not r.error and flipped < count:
            r.error = True
            flipped += 1
    return dataclasses.replace(s, records=records, errors=s.errors + flipped,
                               err_rate=(s.errors + flipped) / s.trials)


def test_error_law_rejects_error_count_many_sigma_away(exhaustive, criterion5):
    wl, s = exhaustive
    n, mb = wl.cfg.blocklength, wl.cfg.message_bits
    checks.check_error_law("ok", s, n, mb)
    with pytest.raises(checks.CheckError, match="exact law"):
        checks.check_error_law("bad", _flip_errors(s, 40), n, mb)
    s24 = criterion5[1][1]
    with pytest.raises(checks.CheckError, match="exact law"):
        checks.check_error_law("bad", _flip_errors(s24, 30), 24, criterion5[0].cfgs[24].message_bits)


def test_noise_energy_check_rejects_scaled_noise(criterion5):
    _, (_, s24, _) = criterion5
    checks.check_noise_energy("ok", s24, 24)
    records = [dataclasses.replace(r, noise_energy=1.1 * r.noise_energy) for r in s24.records]
    with pytest.raises(checks.CheckError, match="chi-squared"):
        checks.check_noise_energy("bad", dataclasses.replace(s24, records=records), 24)


def test_decay_check_rejects_growing_error(criterion5):
    _, (s16, _, s32) = criterion5
    checks.check_decay(s16, s32)
    with pytest.raises(checks.CheckError, match="no decay"):
        checks.check_decay(s32, s16)
    worse = dataclasses.replace(s32, errors=int(0.2 * s32.trials), err_rate=0.2)
    with pytest.raises(checks.CheckError):
        checks.check_decay(s16, worse)


def test_angle_chain_rejects_a_wide_decode_angle(criterion5):
    wl, (_, s24, _) = criterion5
    cfg = wl.cfgs[24]
    args = (24, wl.SNR, cfg.helper_rate, wl.EPS)
    checks.check_angle_chain("ok", s24, *args)
    records = list(s24.records)
    records[0] = dataclasses.replace(records[0], noise_energy=1.0, helper_angle=0.1,
                                     decode_angle=1.5)
    with pytest.raises(checks.CheckError, match="violations"):
        checks.check_angle_chain("bad", dataclasses.replace(s24, records=records), *args)


def test_correlation_budget_rejects_excess_correlation(criterion5):
    _, (_, s24, _) = criterion5
    rho = np.full(24, 0.9)
    profile = dataclasses.replace(s24.corr_profile, per_index_rho=rho)
    bad = dataclasses.replace(s24, corr_profile=profile, corr_sum=float(np.sum(rho * rho)))
    with pytest.raises(checks.CheckError, match="exceeds budget"):
        checks.check_correlation_budget("bad", bad, 24, 0.5)


def _set(line, column, value):
    fields = line.split(",")
    fields[checks.CSV_HEADER.split(",").index(column)] = value
    return ",".join(fields)


@pytest.mark.parametrize("mutate, reason", [
    (lambda lines: [lines[0].replace("errors", "errs")] + lines[1:], "header"),
    (lambda lines: lines[:-1], "rows"),
    (lambda lines: lines[:1] + [_set(lines[1], "rate_bits", "0.875")] + lines[2:], "rate_bits"),
    (lambda lines: lines[:1] + [_set(lines[1], "errors", "9999")] + lines[2:], "errors"),
    (lambda lines: lines[:1] + [_set(lines[1], "ci_high", "1e-9")] + lines[2:], "Wilson"),
    (lambda lines: lines[:1] + [_set(lines[1], "capacity_bits", "1.45")] + lines[2:], "capacity"),
])
def test_sweep_csv_check_rejects_wrong_rows(sweep_csv, mutate, reason):
    wl, text = sweep_csv
    checks.check_sweep_csv(text, wl.cells, wl.trials)
    bad = "\n".join(mutate(text[:-1].split("\n"))) + "\n"
    with pytest.raises(checks.CheckError, match=reason):
        checks.check_sweep_csv(bad, wl.cells, wl.trials)


def test_sweep_check_rejects_a_changed_repeat(sweep_csv, tmp_path):
    wl, text = sweep_csv
    lines = text.split("\n")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text(text)
    second.write_text("\n".join([lines[0], _set(lines[1], "seed", "7")] + lines[2:]))
    wl.first_csv = None
    wl.check([str(first)])
    wl.check([str(first)])
    with pytest.raises(checks.CheckError, match="different CSV"):
        wl.check([str(second)])


def test_traced_round_covers_the_layers(tmp_path):
    wl = tiny("exhaustive-decode", tmp_path)
    tracer = spans.Tracer()
    from gausshelp import scheme

    original = scheme.helper_select
    with tracer.patched():
        _, outputs, failed = run.run_round(wl.calls())
    assert scheme.helper_select is original
    assert failed == 0
    wl.check(outputs)
    values = spans.per_layer_metrics(tracer.layers(), wl.cfg.trials, 0.1, 0.0)
    assert values.keys() == spans.PER_LAYER_UNITS.keys()
    assert values["scheme.decode.calls"] == wl.cfg.trials
    assert values["geometry.cap_ratio_exact.calls_per_trial"] == 0
    assert values["scheme.helper_select.flops_per_trial"] == 2 * 8 * 12
    assert values["codebook.haar_rotation.calls_per_trial"] == (4096 + wl.cfg.trials) / wl.cfg.trials
    assert values["scheme.candidate_rotations.ms"] > 0
    assert values["scheme.run_trial.self_us"] > 0


def test_tracer_stops_on_a_missing_layer_and_restores_the_rest(monkeypatch):
    from gausshelp import scheme

    original = scheme.helper_select
    monkeypatch.delattr(scheme, "transmit")
    with pytest.raises(LookupError, match="scheme.transmit"):
        with spans.Tracer().patched():
            pass
    assert scheme.helper_select is original


def test_tracer_wraps_each_binding_around_the_function_it_holds(monkeypatch):
    from gausshelp import feedback, scheme

    def own_run_trial(*args, **kwargs):
        return "feedback's own"

    monkeypatch.setattr(feedback, "run_trial", own_run_trial)
    tracer = spans.Tracer()
    with tracer.patched():
        assert feedback.run_trial() == "feedback's own"
        assert scheme.run_trial is not feedback.run_trial
    assert [s[0] for s in tracer.spans] == ["scheme.run_trial"]


def test_span_cost_is_positive_and_leaves_no_spans():
    tracer = spans.Tracer()
    assert 0 < tracer.span_cost_s() < 1e-3
    assert tracer.spans == []


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "criterion5",
                          "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
